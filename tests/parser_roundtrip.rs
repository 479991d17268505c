//! Property test: the rule pretty-printer and parser round-trip — every
//! generated REE++ renders to DSL text that parses back to an equal rule.

mod common;

use common::{check, Gen, ALNUM};
use rock::data::{AttrId, AttrType, DatabaseSchema, RelId, RelationSchema, Value};
use rock::rees::{parse_rule, CmpOp, ModelRef, Predicate, Rule};

fn schema() -> DatabaseSchema {
    DatabaseSchema::new(vec![
        RelationSchema::of(
            "Person",
            &[
                ("pid", AttrType::Str),
                ("name", AttrType::Str),
                ("home", AttrType::Str),
                ("age", AttrType::Int),
            ],
        ),
        RelationSchema::of(
            "Store",
            &[
                ("sid", AttrType::Str),
                ("city", AttrType::Str),
                ("sales", AttrType::Float),
            ],
        ),
    ])
}

const CASES: u64 = 128;

fn cmp_op(g: &mut Gen) -> CmpOp {
    g.pick(&[
        CmpOp::Eq,
        CmpOp::Neq,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ])
}

/// One predicate over a fixed two-variable Person template.
fn person_predicate(g: &mut Gen) -> Predicate {
    match g.below(6) {
        // t.A op 'c' — string attrs only, and constants that survive
        // rendering (no quotes/newlines — the DSL's documented literal
        // limitation)
        0 => Predicate::Const {
            var: g.range(0usize..2),
            attr: AttrId(g.range(1u16..3)),
            op: cmp_op(g),
            value: Value::str(g.string(&format!("{ALNUM} _.-"), 1..13)),
        },
        // t.A op s.B over same-typed string attrs
        1 => Predicate::Attr {
            lvar: 0,
            lattr: AttrId(g.range(1u16..3)),
            op: cmp_op(g),
            rvar: 1,
            rattr: AttrId(g.range(1u16..3)),
        },
        2 => Predicate::IsNull {
            var: g.range(0usize..2),
            attr: AttrId(g.range(0u16..4)),
        },
        3 => Predicate::Temporal {
            lvar: 0,
            rvar: 1,
            attr: AttrId(g.range(0u16..4)),
            strict: g.bool(),
        },
        // ML pair predicate
        4 => {
            let mut attrs = g.vec(1..3, |g| g.range(0u16..4));
            attrs.sort_unstable();
            attrs.dedup();
            let attrs: Vec<AttrId> = attrs.into_iter().map(AttrId).collect();
            Predicate::Ml {
                model: ModelRef::named("M"),
                lvar: 0,
                lattrs: attrs.clone(),
                rvar: 1,
                rattrs: attrs,
            }
        }
        _ => Predicate::EidCmp {
            lvar: 0,
            rvar: 1,
            eq: g.bool(),
        },
    }
}

#[test]
fn display_then_parse_is_identity() {
    let round_tripped = std::cell::Cell::new(0u64);
    check(CASES, |g| {
        let pre = g.vec(1..4, person_predicate);
        let cons = person_predicate(g);
        let schema = schema();
        // consequence must not duplicate a precondition textually for the
        // equality check to be meaningful; duplicates are fine for the
        // parser, so keep them.
        let rule = Rule::new(
            "p",
            vec![("t".into(), RelId(0)), ("s".into(), RelId(0))],
            vec![],
            pre,
            cons,
        );
        if rule.validate(&schema).is_err() {
            return;
        }
        let text = rule.display(&schema).to_string();
        let reparsed = parse_rule(&text, &schema)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n  text: {text}"));
        assert_eq!(rule, reparsed, "text: {text}");
        round_tripped.set(round_tripped.get() + 1);
    });
    // the generator must mostly produce rules that validate
    assert!(round_tripped.get() >= CASES / 2, "{}", round_tripped.get());
}

/// Parsing is total on printable garbage: never panics, returns Err.
#[test]
fn parser_never_panics() {
    check(CASES, |g| {
        let printable: String = (b' '..=b'~').map(char::from).collect();
        let junk = g.string(&printable, 0..81);
        let schema = schema();
        let _ = parse_rule(&junk, &schema);
    });
}

/// Cross-relation rules round-trip too.
#[test]
fn cross_relation_roundtrip() {
    let schema = schema();
    let text = "rule x: Person(t) && Store(s) && t.home = s.city -> t.name = s.sid";
    let rule = parse_rule(text, &schema).unwrap();
    assert_eq!(rule.display(&schema).to_string(), text);
}
