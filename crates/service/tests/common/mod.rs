//! Shared by the soak and interleave suites: comparing symbolic views
//! that came out of two different engines.
//!
//! The normal form orders `Σ` summands by arena `NodeId`, which depends
//! on the order an engine happened to intern things — so two engines (or
//! one engine served the same requests in a different arrival order)
//! render the same class differently. Symbolic rows are therefore
//! compared by names and flags plus *semantically*: equal values under
//! seeded valuations.

use uprov_core::UpdateStructure;
use uprov_service::proto::SymbolicRow;
use uprov_service::values;
use uprov_structures::Worlds;

/// Evaluate a rendered provenance expression under a name→value map.
///
/// The display grammar is fully parenthesized below the top level
/// (`ExprArena::display`): a level is operands joined by one
/// operator, an operand is `0`, a name, or a parenthesized level.
pub fn eval_render<S, F>(s: &S, src: &str, value_of: &F) -> S::Value
where
    S: UpdateStructure,
    F: Fn(&str) -> S::Value,
{
    let (v, rest) = parse_level(s, src, value_of);
    assert!(rest.is_empty(), "trailing garbage in render: {rest:?}");
    v
}

fn parse_level<'a, S, F>(s: &S, src: &'a str, value_of: &F) -> (S::Value, &'a str)
where
    S: UpdateStructure,
    F: Fn(&str) -> S::Value,
{
    let (mut acc, mut rest) = parse_operand(s, src, value_of);
    loop {
        type Op<S> = fn(
            &S,
            &<S as UpdateStructure>::Value,
            &<S as UpdateStructure>::Value,
        ) -> <S as UpdateStructure>::Value;
        let (op, after): (Op<S>, &str) = if let Some(r) = rest.strip_prefix(" +I ") {
            (S::plus_i, r)
        } else if let Some(r) = rest.strip_prefix(" +M ") {
            (S::plus_m, r)
        } else if let Some(r) = rest.strip_prefix(" .M ") {
            (S::dot_m, r)
        } else if let Some(r) = rest.strip_prefix(" - ") {
            (S::minus, r)
        } else if let Some(r) = rest.strip_prefix(" + ") {
            (S::plus, r)
        } else {
            return (acc, rest);
        };
        let (b, after) = parse_operand(s, after, value_of);
        acc = op(s, &acc, &b);
        rest = after;
    }
}

fn parse_operand<'a, S, F>(s: &S, src: &'a str, value_of: &F) -> (S::Value, &'a str)
where
    S: UpdateStructure,
    F: Fn(&str) -> S::Value,
{
    if let Some(inner) = src.strip_prefix('(') {
        let (v, rest) = parse_level(s, inner, value_of);
        let rest = rest
            .strip_prefix(')')
            .unwrap_or_else(|| panic!("unbalanced parens in render at {rest:?}"));
        (v, rest)
    } else {
        let end = src
            .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
            .unwrap_or(src.len());
        assert!(end > 0, "empty operand in render at {src:?}");
        let (name, rest) = src.split_at(end);
        let v = if name == "0" {
            s.zero()
        } else {
            value_of(name)
        };
        (v, rest)
    }
}

/// Two symbolic views of one query agree: same tuple names and
/// saturation flags in the same order, and every pair of rendered normal
/// forms evaluates equally under three seeded `Worlds` valuations.
/// `context` prefixes the failure message.
pub fn assert_symbolic_rows_agree(got: &[SymbolicRow], want: &[SymbolicRow], context: &str) {
    let shape = |rs: &[SymbolicRow]| -> Vec<(String, bool)> {
        rs.iter().map(|r| (r.name.clone(), r.saturated)).collect()
    };
    assert_eq!(
        shape(got),
        shape(want),
        "{context}: symbolic names/flags diverge"
    );
    for (got, want) in got.iter().zip(want) {
        for salt in [0x51AB_0001u64, 0x51AB_0002, 0x51AB_0003] {
            let value_of = |name: &str| values::name_mask(name, salt);
            assert_eq!(
                eval_render(&Worlds, &got.provenance, &value_of),
                eval_render(&Worlds, &want.provenance, &value_of),
                "{context}: `{}` and `{}` diverge semantically",
                got.provenance,
                want.provenance
            );
        }
    }
}
