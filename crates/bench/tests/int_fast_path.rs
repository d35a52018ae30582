//! Differential test for the flat evaluator's integer fast path: every
//! way an expression can leave the all-`Int` case must give the same
//! values, errors, messages and spans on the tree walker, the flat code
//! and the optimized flat code.
//!
//! Each case is a one-trail program `x = await E; r = <expr>; ...` run
//! on a fresh machine per payload, so every payload's outcome is
//! independent. The payloads include `0`, `-1`, `i64::MIN` and
//! `i64::MAX`, which reach the division-by-zero, overflow and wrapping
//! edges through an event value the optimizer cannot fold.

use ceu::runtime::{Machine, RecordingHost, Value};
use ceu::{CompiledProgram, Compiler};
use std::sync::Arc;

const PAYLOADS: [i64; 8] = [0, 1, -1, 3, 7, 64, i64::MIN, i64::MAX];

/// `(name, declarations, statements)`: the statements run after
/// `x = await E;` and may read `x`.
const CASES: &[(&str, &str, &str)] = &[
    ("div_by_zero", "int r;", "r = 100 / x;"),
    ("mod_by_zero", "int r;", "r = 100 % x;"),
    ("div_by_zero_nested", "int r;", "r = 1 + 2 * (3 - 100 / (x - x));"),
    ("min_div_neg_one", "int r, s;", "r = x / -1;\ns = x % -1;"),
    ("wrapping", "int a, b, c, d;", "a = x + x;\nb = x * 3;\nc = x - 1 - x;\nd = -x;"),
    (
        "null_operands",
        "int a, b, c, d, e;",
        "a = x + null;\nb = null * x;\nc = x < null;\nd = -null;\ne = !null;",
    ),
    ("null_equality", "int a, b, c;", "a = null == x;\nb = x != null;\nc = null == null;"),
    (
        "data_pointers",
        "int a, b, c, r, s;\nint* p;",
        "a = 10;\nb = 20;\nc = 30;\np = &a;\nr = *(p + x);\ns = *((p + 2) - x);",
    ),
    ("pointer_compare", "int a, r;\nint* p;", "p = &a;\nr = p < x;"),
    ("pointer_times", "int a, r;\nint* p;", "p = &a;\nr = p * x;"),
    (
        "strings",
        "int s, a, b, c, d;",
        "s = \"abc\";\na = s == \"abc\";\nb = s != null;\nc = s == x;\nd = \"abc\" == \"abd\";",
    ),
    ("string_arith", "int s, r;", "s = \"abc\";\nr = s + x;"),
    ("string_negate", "int s, r;", "s = \"abc\";\nr = -s;"),
    (
        "shifts",
        "int a, b, c, d, e;",
        "a = x << 3;\nb = x >> 1;\nc = x << 70;\nd = 1 << x;\ne = x >> -1;",
    ),
    ("bitwise", "int a, b, c, d;", "a = x & 12;\nb = x | 3;\nc = x ^ 5;\nd = ~x;"),
    (
        "comparisons",
        "int a, b, c, d, e, f, g;",
        "a = x < 3;\nb = x > 3;\nc = x <= 3;\nd = x >= 3;\ne = x == 3;\nf = x != 3;\ng = !x;",
    ),
    (
        "short_circuit",
        "int a, b, c, d;",
        "a = x && 4;\nb = x || 0;\nc = (x > 2) && (100 / x > 1);\nd = x && _probe(x);",
    ),
    ("short_circuit_error", "int a;", "a = (x < 2) || (100 / (x - x));"),
    ("host_operands", "int a, b;", "a = x + _probe(x);\nb = _G * x;"),
];

/// `x + (x + (... + x))` nested `depth` deep: the postfix code stacks
/// `depth + 1` operands before the first add.
fn deep(depth: usize) -> String {
    let mut e = String::from("x");
    for _ in 0..depth {
        e = format!("x + ({e})");
    }
    e
}

fn program(decls: &str, stmts: &str) -> String {
    format!("input int E;\nint x;\n{decls}\nx = await E;\n{stmts}\nawait forever;\n")
}

fn host() -> RecordingHost {
    RecordingHost::new().with_return("probe", 5).with_global("G", 2)
}

/// Outcome of one payload on one lane: the reaction's result (error
/// text with its span), the final data slots and the host calls.
type Outcome = (Result<(), String>, Vec<Value>, Vec<(String, Vec<Value>)>);

fn run(prog: &Arc<CompiledProgram>, tree: bool, payload: i64) -> Outcome {
    let mut m = Machine::from_arc(Arc::clone(prog));
    m.use_tree_eval = tree;
    let mut h = host();
    m.go_init(&mut h).expect("boot");
    let e = m.event_id("E").expect("input E");
    let r = m.go_event(e, Some(Value::Int(payload)), &mut h).map(drop).map_err(|e| e.to_string());
    (r, m.data().to_vec(), h.calls)
}

/// Runs `src` on tree/flat over the raw artifact and flat/tree over the
/// optimized one; asserts all four agree per payload and returns the
/// outcomes.
fn differential(name: &str, src: &str) -> Vec<Outcome> {
    let raw =
        Arc::new(Compiler::unoptimized().compile(src).unwrap_or_else(|e| panic!("{name}: {e}")));
    let opt = Arc::new(Compiler::new().compile(src).unwrap_or_else(|e| panic!("{name}: {e}")));
    PAYLOADS
        .iter()
        .map(|&x| {
            let flat = run(&raw, false, x);
            assert_eq!(flat, run(&raw, true, x), "{name} x={x}: tree vs flat");
            assert_eq!(flat, run(&opt, false, x), "{name} x={x}: flat vs optimized flat");
            assert_eq!(flat, run(&opt, true, x), "{name} x={x}: flat vs optimized tree");
            flat
        })
        .collect()
}

fn ints(data: &[Value], from: usize) -> Vec<Option<i64>> {
    data[from..].iter().map(Value::as_int).collect()
}

#[test]
fn every_bail_out_agrees_across_evaluators() {
    for (name, decls, stmts) in CASES {
        differential(name, &program(decls, stmts));
    }
}

#[test]
fn division_and_modulo_by_zero_keep_their_message_and_span() {
    let div = differential("div", &program("int r;", "r = 100 / x;"));
    assert_eq!(div[0].0, Err("runtime error at 5:1: division by zero".to_string()));
    assert_eq!(div[3].0, Ok(()));
    assert_eq!(div[3].1[1], Value::Int(33));
    let rem = differential("mod", &program("int r;", "r = 100 % x;"));
    assert_eq!(rem[0].0, Err("runtime error at 5:1: modulo by zero".to_string()));
    assert_eq!(rem[3].1[1], Value::Int(1));
}

#[test]
fn min_over_minus_one_wraps() {
    let out = differential("min", &program("int r, s;", "r = x / -1;\ns = x % -1;"));
    let min = PAYLOADS.iter().position(|&x| x == i64::MIN).unwrap();
    assert_eq!(out[min].0, Ok(()));
    assert_eq!(ints(&out[min].1, 1), vec![Some(i64::MIN), Some(0)]);
}

#[test]
fn null_and_pointer_operands_leave_the_int_path() {
    let out = differential("null", &program("int a, b;", "a = x + null;\nb = null == x;"));
    assert_eq!(ints(&out[3].1, 1), vec![Some(3), Some(0)]);
    assert_eq!(ints(&out[0].1, 1), vec![Some(0), Some(1)]);
    let src = program("int a, b, r;\nint* p;", "a = 10;\nb = 20;\np = &a;\nr = *(p + x);");
    let out = differential("ptr", &src);
    assert_eq!(out[1].1[3], Value::Int(20), "p + 1 points at b");
    let out = differential("ptr_cmp", &program("int a, r;\nint* p;", "p = &a;\nr = p < x;"));
    let err = out[0].0.clone().unwrap_err();
    assert!(err.contains("operator `<` needs integers"), "{err}");
}

#[test]
fn expressions_deeper_than_any_fixed_stack_agree() {
    for depth in (1..=24).chain([40, 64]) {
        let out = differential(
            &format!("deep{depth}"),
            &program("int r;", &format!("r = {};", deep(depth))),
        );
        assert_eq!(out[3].1[1], Value::Int(3 * (depth as i64 + 1)), "depth {depth}");
    }
}
