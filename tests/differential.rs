//! The random scenarios of the differential harness (`tests/scenarios`),
//! with the deployments every column plays, large-stream anchors, and the
//! compiled predicate programs held to the oracle's evaluator.
//!
//! The scenarios hold the indexed engine to the brute-force oracle
//! (`tests/oracle`) and every other deployment to the engine, batch by
//! batch; see `tests/scenarios/mod.rs` for the checks.

mod oracle;
mod scenarios;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sase::core::expr::CompiledExpr;
use sase::core::functions::FunctionRegistry;
use sase::core::lang::ast::{AttrRef, BinOp, Expr, UnaryOp};
use sase::core::lang::{parse_expr, parse_query};
use sase::core::pattern::CompiledPattern;
use sase::core::value::{Value, ValueType};
use sase::core::{Event, PredicateProgram, SchemaRegistry};
use sase::rfid::generator::{generate, SyntheticConfig};
use sase::ShardingMode;

use scenarios::{
    pick, play, property, reading, registry, retail, row, Column, Draw, Scenario, Shape, Step, ALL,
};

// ---------------------------------------------------------------------------
// Random scenarios
// ---------------------------------------------------------------------------

/// Scenarios of every stream shape on the columns each one draws. The
/// tests below and in the other `*_differential.rs` files play narrower
/// slices: soups, generator streams, keyed streams on every shard count,
/// named routing streams, the wire, fixed metrics columns, and crash
/// points.
#[test]
fn every_deployment_agrees_on_random_scenarios() {
    let name = "every_deployment_agrees_on_random_scenarios";
    let tally = property(name, 48, Draw::default(), |_, _| {});
    if std::env::var("PROPTEST_CASES").is_err() {
        assert!(tally.count(|c| *c == Column::ScanAll) >= 48);
        let by_key = |n| tally.count(|c| *c == Column::Sharded(ShardingMode::ByPartitionKey, n));
        assert!(by_key(1) + by_key(2) + by_key(4) + by_key(8) >= 24);
        assert!([1, 2, 4, 8].iter().all(|&n| by_key(n) >= 3));
        let by_query = |c: &Column| matches!(c, Column::Sharded(ShardingMode::ByQuery, _));
        assert!(tally.count(by_query) >= 16);
        assert!(tally.count(|c| matches!(c, Column::Facade(_))) >= 16);
        assert!(tally.count(|c| *c == Column::Durable(None)) >= 16);
        assert!(tally.count(|c| matches!(c, Column::Durable(Some(_)))) >= 16);
        let judged = tally.judged;
        assert!(judged > 1000, "the oracle judged only {judged} matches");
    }
}

/// Arbitrary soups of retail readings, on the columns each scenario draws.
#[test]
fn configs_agree_on_arbitrary_streams() {
    let draw = Draw {
        shape: Some(Shape::Soup),
        ..Draw::default()
    };
    let tally = property("configs_agree_on_arbitrary_streams", 32, draw, |_, _| {});
    assert!(tally.judged > 0, "the oracle judged no match");
}

/// Streams of the RFID generator, on the columns each scenario draws.
#[test]
fn configs_agree_on_random_generator_streams() {
    let draw = Draw {
        shape: Some(Shape::Generator),
        ..Draw::default()
    };
    let name = "configs_agree_on_random_generator_streams";
    let tally = property(name, 32, draw, |_, _| {});
    assert!(tally.judged > 0, "the oracle judged no match");
}

// ---------------------------------------------------------------------------
// Evaluation errors stay in their query
// ---------------------------------------------------------------------------

/// The `[query@detected_at` heads of emissions, in order.
fn heads(out: &[String]) -> Vec<&str> {
    out.iter().map(|e| e.split(']').next().unwrap()).collect()
}

/// Every pinned column, and the wire.
fn every_column() -> Vec<Column> {
    ALL.iter().copied().chain([Column::Wire]).collect()
}

/// The probe: `bad` divides by zero on tag 13, and `good` goes on. Every
/// batch succeeds on every column, a restored deployment counts what the
/// uninterrupted one counts, a durable one recovers with no replay error,
/// and `bad` counts its errors everywhere.
#[test]
fn an_evaluation_error_stays_in_its_query() {
    let queries = [
        (
            "good",
            "EVENT EXIT_READING z RETURN z.TagId AS t".to_string(),
        ),
        (
            "bad",
            "EVENT SHELF_READING x RETURN 1 / (x.TagId - 13) AS v".into(),
        ),
    ];
    // Readings of type `k mod 3`: 0 shelf, 2 exit.
    let batch = vec![
        reading(2, 1, 1, 4),
        reading(0, 2, 13, 1),
        reading(2, 3, 2, 4),
        reading(2, 4, 3, 4),
    ];
    let columns: Vec<Column> = every_column()
        .into_iter()
        .chain([Column::WireDurable])
        .collect();
    let again = vec![reading(0, 5, 13, 1), reading(2, 6, 4, 4)];
    let mut s = row(&queries, vec![batch], &columns);
    s.script.push(Step::Snapshot);
    s.script.push(Step::Batch(None, again));
    s.script.push(Step::Crash(0));
    let played = play(&s);
    assert_eq!(
        heads(&played.out),
        ["[good@1", "[good@3", "[good@4", "[good@6"]
    );
    assert_eq!(played.engine.stats("bad").unwrap().eval_errors, 2);
    assert_eq!(played.engine.stats("good").unwrap().eval_errors, 0);
}

/// A host function failing mid-batch drops only the match it was called
/// for: every event is offered, every column returns the reference's
/// emissions and no error, and the durable ones again at replay.
#[test]
fn a_failing_host_function_drops_only_its_match() {
    let queries = [
        ("exits", retail(23, 0, 0)),
        (
            "faulty",
            "EVENT SHELF_READING x RETURN _faulty(x.TagId) AS v".into(),
        ),
    ];
    // Readings of type `k mod 3`: 0 shelf, 2 exit; `_faulty` fails on tag 13.
    let batches = vec![
        vec![reading(0, 1, 1, 1), reading(2, 2, 1, 4)],
        vec![
            reading(2, 3, 2, 4),
            reading(0, 4, 5, 1),
            reading(0, 5, 13, 1),
            reading(2, 6, 3, 4),
        ],
        vec![reading(2, 7, 4, 4)],
    ];
    let mut s = row(&queries, batches, &every_column());
    s.script.push(Step::Crash(0));
    let played = play(&s);
    assert_eq!(
        heads(&played.out),
        [
            "[faulty@1",
            "[exits@2",
            "[exits@3",
            "[faulty@4",
            "[exits@6",
            "[exits@7"
        ]
    );
    assert_eq!(played.engine.stats("faulty").unwrap().eval_errors, 1);
}

/// An `INTO` producer on the default stream whose derived event regresses
/// a named stream that a direct ingest has advanced: that derived event is
/// dropped as the producer's error, and every other query goes on.
/// Durable columns are left out: their log records carry no stream name,
/// so they take the default stream only.
#[test]
fn a_derived_regression_drops_only_the_derived_event() {
    let moved = registry().build_event("moves", 100, vec![Value::Int(9), Value::Int(1)]);
    let register = |name: &str, src: &str| Step::Register(name.into(), src.into());
    let script = vec![
        register(
            "producer",
            "EVENT EXIT_READING z RETURN z.TagId AS tag, z.AreaId AS area INTO moves",
        ),
        register("mover", "FROM moves EVENT MOVES m RETURN m.tag AS t"),
        register("counters", "EVENT COUNTER_READING c RETURN c.TagId AS tag"),
        Step::Batch(Some("moves"), vec![moved.unwrap()]),
        // Readings of type `k mod 3`: 1 counter, 2 exit.
        Step::Batch(
            None,
            vec![
                reading(1, 40, 2, 1),
                reading(2, 50, 1, 4),
                reading(1, 60, 3, 1),
            ],
        ),
        Step::Batch(None, vec![reading(2, 120, 4, 4)]),
    ];
    let columns = (every_column().into_iter())
        .filter(|c| !matches!(c, Column::Durable(_)))
        .collect();
    let played = play(&Scenario { script, columns });
    assert_eq!(
        heads(&played.out),
        [
            "[mover@100",
            "[counters@40",
            "[producer@50",
            "[counters@60",
            "[producer@120",
            "[mover@120"
        ]
    );
    assert_eq!(played.engine.stats("producer").unwrap().eval_errors, 1);
}

// ---------------------------------------------------------------------------
// Large-stream anchors
// ---------------------------------------------------------------------------

/// A large-stream anchor: one query over a long stream, on a data-parallel
/// column (the random scenarios cover the rest); the oracle must confirm
/// at least one match.
fn anchor(query: &str, stream: Vec<Event>) {
    let batches = stream.chunks(64).map(<[Event]>::to_vec).collect();
    let columns = [Column::Sharded(ShardingMode::ByPartitionKey, 4)];
    let played = play(&row(&[("q", query.to_string())], batches, &columns));
    assert!(played.judged > 0, "no matches for {query} — weak test");
}

macro_rules! anchors {
    ($($name:ident: $t:expr, $window:expr, $k:expr, $seeds:expr, $events:expr, $parts:expr;)*) => {$(
        #[test]
        fn $name() {
            for seed in $seeds {
                let cfg = SyntheticConfig::retail(seed, $events, $parts);
                anchor(&retail($t, $window, $k), generate(&registry(), &cfg));
            }
        }
    )*};
}

anchors! {
    differential_two_step_equality: 0, 120, 0, [1, 2, 3], 1_500, 8;
    differential_q1_with_negation: 1, 150, 0, [4, 5, 6], 1_500, 6;
    differential_equivalence_shorthand_three_steps: 2, 200, 0, [7, 8], 1_200, 5;
    differential_mixed_predicates: 3, 100, 2, [9, 10], 1_500, 6;
    differential_any_pattern: 4, 80, 0, [11, 12], 1_200, 6;
    differential_negation_with_candidate_filter: 5, 150, 3, [13, 14], 1_500, 5;
    differential_unbounded_window: 6, 0, 0, [15], 400, 10;
    differential_unpartitioned_sequence: 7, 30, 0, [17, 18], 1_200, 6;
    differential_flat_negation_buffer: 8, 60, 3, [19, 20], 1_500, 6;
    differential_same_type_sequence: 9, 100, 0, [21, 22], 1_200, 6;
    differential_single_component: 10, 0, 3, [23], 600, 6;
    differential_two_part_key: 11, 120, 0, [25, 26], 1_500, 6;
    differential_two_part_key_with_negation: 12, 150, 0, [27, 28], 1_500, 4;
    differential_string_key: 13, 60, 0, [29], 1_200, 6;
}

#[test]
fn differential_any_with_key_at_different_positions() {
    // `TagId` sits at a different position in each candidate type of
    // `ANY(A, B)` and of `ANY(B, C)`, so their keys resolve per event type.
    let reg = registry();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let stream = (1..=600u64).map(|ts| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let tag = Value::Int(((state >> 8) % 5) as i64);
        let area = Value::Int(1 + ((state >> 24) % 3) as i64);
        let (ty, attrs) = match state % 3 {
            0 => ("A", vec![tag, area]),
            1 => ("B", vec![area, tag]),
            _ => ("C", vec![area, Value::str("c"), tag]),
        };
        reg.build_event(ty, ts, attrs).unwrap()
    });
    let query = "EVENT SEQ(ANY(A, B) a, !(ANY(B, C) n), C c) \
                 WHERE a.TagId = n.TagId AND a.TagId = c.TagId WITHIN 30";
    anchor(query, stream.collect());
}

#[test]
fn differential_four_steps_over_custom_types() {
    let cfg = SyntheticConfig {
        type_mix: (0..4).map(|i| (format!("T{i}"), 1)).collect(),
        ..SyntheticConfig::retail(16, 600, 5)
    };
    let query = "EVENT SEQ(T0 a, T1 b, T2 c, T3 d) WHERE [TagId] WITHIN 40";
    anchor(query, generate(&registry(), &cfg));
}

// ---------------------------------------------------------------------------
// Predicate programs against the oracle's evaluator
// ---------------------------------------------------------------------------

/// Slot 0 `x`: T_A; slot 1 `y` (negated): T_B; slot 2 `z`: ANY(T_A, T_B).
/// The two types store `a` at different positions, so `z.a` resolves per
/// event.
fn program_registry() -> SchemaRegistry {
    use ValueType::{Bool, Float, Int, Str};
    let reg = SchemaRegistry::new();
    reg.register("T_A", &[("a", Int), ("name", Str), ("f", Float)])
        .unwrap();
    reg.register("T_B", &[("name", Str), ("a", Int), ("flag", Bool)])
        .unwrap();
    reg
}

const VARS: [&str; 3] = ["x", "y", "z"];
/// Mixed-case spellings, the pseudo-attributes, and a missing attribute.
const ATTRS: [&str; 7] = ["a", "A", "name", "NAME", "Timestamp", "ts", "nope"];

/// The comparisons the compiler fuses.
const CMPS: [BinOp; 6] = [
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
];

/// A well-typed `attr ⋈ literal`, either way round, whose literal is drawn
/// from the attribute's own values: on a bound slot it compiles to a fused
/// comparison that is as often true as false, and equal values are
/// common, so it tells `<=` from `<` and `!=` from `=`.
fn gen_attr_cmp(rng: &mut StdRng) -> Expr {
    let (attr, literal) = match rng.gen_range(0..2) {
        0 => ("a", Value::Int(rng.gen_range(0..5))),
        _ => ("name", Value::str(pick(rng, &["p", "q"]))),
    };
    let attr = Box::new(Expr::Attr(AttrRef {
        var: pick(rng, &VARS).to_string(),
        attr: attr.to_string(),
        span: Default::default(),
    }));
    let literal = Box::new(Expr::Literal(literal));
    let (left, right) = match rng.gen_bool(0.5) {
        true => (attr, literal),
        false => (literal, attr),
    };
    Expr::Binary {
        op: pick(rng, &CMPS),
        left,
        right,
    }
}

fn gen_expr(rng: &mut StdRng, depth: u32) -> Expr {
    let sub = |rng: &mut StdRng| Box::new(gen_expr(rng, depth - 1));
    if rng.gen_bool(0.25) {
        return gen_attr_cmp(rng);
    }
    match rng.gen_range(0..if depth == 0 { 2 } else { 8 }) {
        0 => Expr::Literal(match rng.gen_range(0..5) {
            0 => Value::Int(rng.gen_range(-3..4)),
            1 => Value::Float(rng.gen_range(-4..5) as f64 / 2.0),
            2 => Value::str(pick(rng, &["p", "q", ""])),
            3 => Value::Bool(rng.gen_bool(0.5)),
            // Zero often enough to reach division by zero.
            _ => Value::Int(0),
        }),
        1 => Expr::Attr(AttrRef {
            var: pick(rng, &VARS).to_string(),
            attr: pick(rng, &ATTRS).to_string(),
            span: Default::default(),
        }),
        2 => Expr::Unary {
            op: pick(rng, &[UnaryOp::Not, UnaryOp::Neg]),
            expr: sub(rng),
        },
        3 => Expr::Call {
            name: pick(rng, &["_abs", "_min", "_max", "_concat", "_len"]).to_string(),
            args: (0..rng.gen_range(1..3)).map(|_| *sub(rng)).collect(),
        },
        _ => {
            use BinOp::*;
            let op = pick(
                rng,
                &[And, Or, Eq, Ne, Lt, Le, Gt, Ge, Add, Sub, Mul, Div, Rem],
            );
            Expr::Binary {
                op,
                left: sub(rng),
                right: sub(rng),
            }
        }
    }
}

/// A partial binding: each slot unbound one time in four.
fn gen_binding(rng: &mut StdRng, reg: &SchemaRegistry) -> Vec<Option<Event>> {
    let mut event = |slot| {
        let (ts, name, a) = (
            rng.gen_range(0..50),
            Value::str(pick(rng, &["p", "q"])),
            Value::Int(rng.gen_range(0..5)),
        );
        let event = if slot == 0 || (slot == 2 && rng.gen_bool(0.5)) {
            let f = Value::Float(rng.gen_range(0..8) as f64 / 2.0);
            reg.build_event("T_A", ts, vec![a, name, f])
        } else {
            reg.build_event("T_B", ts, vec![name, a, Value::Bool(rng.gen_bool(0.5))])
        };
        (rng.gen_range(0..4) > 0).then(|| event.unwrap())
    };
    (0..3).map(&mut event).collect()
}

/// A compiled program must return the oracle's value (`Int(3)` and
/// `Float(3.0)` told apart) or fail where the oracle fails, as a value and
/// as a predicate. Returns false when the expression does not compile
/// (unknown variables and functions are rejected before programs exist).
fn program_agrees(ast: &Expr, bindings: &[Vec<Option<Event>>]) -> bool {
    let reg = program_registry();
    let q = parse_query("EVENT SEQ(T_A x, !(T_B y), ANY(T_A, T_B) z) WITHIN 100").unwrap();
    let pattern = CompiledPattern::compile(&q.pattern, &reg).unwrap();
    let functions = FunctionRegistry::with_stdlib();
    let Ok(tree) = CompiledExpr::compile(ast, &pattern.slot_table()[..], &functions) else {
        return false;
    };
    let program = PredicateProgram::from_expr(tree, &pattern, &reg).unwrap();
    for binding in bindings {
        let bound = VARS
            .iter()
            .zip(binding)
            .filter_map(|(v, e)| Some((*v, e.as_ref()?)));
        let want = oracle::eval(ast, &bound.collect::<Vec<_>>());
        let got = program.eval(&binding[..]);
        let show = |v: &Value| format!("{v:?}");
        let agree = match (&got, &want) {
            (Ok(got), Ok(want)) => show(got) == show(want),
            (got, want) => got.is_err() && want.is_err(),
        };
        assert!(
            agree,
            "{ast} on {binding:?}: program {got:?}, oracle {want:?}"
        );
        let want = want.ok().and_then(|v| v.as_bool());
        assert_eq!(
            program.eval_bool(&binding[..]).ok(),
            want,
            "{ast} as a predicate"
        );
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn programs_match_the_oracle_on_random_expressions(
        seed in 1u64..u64::MAX,
        depth in 1u32..6,
        bindings in 2usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let reg = program_registry();
        let ast = gen_expr(&mut rng, depth);
        let bindings: Vec<_> = (0..bindings).map(|_| gen_binding(&mut rng, &reg)).collect();
        program_agrees(&ast, &bindings);
    }
}

/// Shapes with known subtle semantics, on a full and a partial binding.
#[test]
fn program_anchor_cases() {
    let reg = program_registry();
    let ea = reg.build_event(
        "T_A",
        7,
        vec![Value::Int(3), Value::str("p"), Value::Float(1.5)],
    );
    let eb = reg.build_event(
        "T_B",
        9,
        vec![Value::str("q"), Value::Int(3), Value::Bool(true)],
    );
    let (ea, eb) = (ea.unwrap(), eb.unwrap());
    let bindings = [
        vec![Some(ea.clone()), Some(eb.clone()), Some(eb)],
        vec![Some(ea), None, None],
    ];
    for src in [
        "x.a = z.a",                            // fused attr=attr across a dynamic slot
        "x.A = 3",                              // fused attr=literal, mixed case
        "3 != x.a OR y.a = 1",                  // flipped literal compare, short circuit
        "x.nope = 1",                           // missing attribute
        "y.a = 1 AND x.a = 3",                  // unbound left operand
        "x.a / 0 = 1",                          // division by zero
        "x.ts + y.Timestamp",                   // pseudo-attributes, not a boolean
        "NOT (x.a > z.a)",                      // NOT over a fused compare
        "_concat(x.name, z.name) = 'pq'",       // a call
        "x.name > 3",                           // incomparable ordering is false
        "x.f = 1.5 AND x.a < 100 AND z.a >= 0", // AND chain of fused ops
        "x.a <= 3 AND x.a >= 3",                // the inclusive bounds
    ] {
        assert!(
            program_agrees(&parse_expr(src).unwrap(), &bindings),
            "{src} compiles"
        );
    }
}
