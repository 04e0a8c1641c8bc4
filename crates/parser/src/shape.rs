//! Statement shapes: a statement's tokens with its literals lifted out.
//!
//! An application's statements differ only in their literals —
//! `MATCH (p:Person {id: 7}) SET p.score = 3` ten thousand times with
//! other numbers. [`Shape::of`] walks a lexed statement once, takes the
//! liftable `Int` / `Float` / `Str` tokens out into a value vector and
//! encodes what is left as a byte key, so a caller can keep everything
//! it derived from the first statement of a shape (the parse, the
//! compiled and planned algebra) and only *bind* the literals of the
//! next one. A lifted literal is a parameter the engine named itself:
//! [`Shape::rewrite`] puts `$` + [`lifted_name`] where the literal was
//! and the parser reads it as an ordinary [`Expr::Parameter`].
//!
//! What stays in the shape, because the grammar or the result needs it
//! literally: hop bounds (`*1..3`), the count after `SKIP` / `LIMIT`,
//! the keywords `null` / `true` / `false` (they are not literal tokens),
//! and every literal of an un-aliased `RETURN` / `WITH` item — its
//! source text is the name of a result column. The rules are decided on
//! tokens alone and err towards keeping: a literal kept needlessly only
//! splits one shape in two, and a caller whose rewritten statement does
//! not parse or compile falls back to the exact tokens
//! (`Shape::of(tokens, false)`).
//!
//! [`Expr::Parameter`]: crate::ast::Expr::Parameter

use pgq_common::value::Value;

use crate::token::{Kw, Spanned, Tok};

/// The parameter name of lifted literal `slot`. No identifier the lexer
/// produces contains a backtick, so it cannot collide with a `$name` the
/// user wrote.
pub fn lifted_name(slot: usize) -> String {
    format!("`{slot}")
}

/// A lexed statement split into what repeats and what varies.
#[derive(Clone, Debug, PartialEq)]
pub struct Shape {
    /// The token stream with every lifted literal replaced by a slot
    /// marker, byte-encoded without source offsets: equal for two
    /// statements iff they differ only in lifted literals, whitespace,
    /// comments and keyword case.
    pub key: Vec<u8>,
    /// The lifted literals in source order; slot `i` is `values[i]`.
    pub values: Vec<Value>,
    /// The `$name` parameters the statement itself wrote, in order of
    /// first appearance.
    pub names: Vec<String>,
    /// Token index of each lifted literal, ascending.
    slots: Vec<usize>,
}

impl Shape {
    /// Split `tokens` (as [`crate::lexer::lex`] returns them). With
    /// `lift` off nothing is lifted: the key spells the exact statement.
    pub fn of(tokens: &[Spanned], lift: bool) -> Shape {
        let mut shape = Shape {
            key: Vec::with_capacity(tokens.len() * 4),
            values: Vec::new(),
            names: Vec::new(),
            slots: Vec::new(),
        };
        // Open brackets, innermost last: is it the `[…]` of a
        // relationship pattern (directly inside, only hop bounds are
        // literal)?
        let mut open: Vec<bool> = Vec::new();
        // Inside the item list of a RETURN / WITH written at this
        // bracket depth, and does the current item lack an alias?
        let mut items_at: Option<usize> = None;
        let mut unaliased = false;
        let mut prev: Option<&Tok> = None;
        for (i, t) in tokens.iter().enumerate() {
            let tok = &t.tok;
            if items_at == Some(open.len()) {
                match tok {
                    Tok::Comma => unaliased = !has_alias(&tokens[i + 1..]),
                    _ if starts_clause(tok, prev) => items_at = None,
                    _ => {}
                }
            }
            let mut lifted = false;
            match tok {
                Tok::LBracket => open.push(matches!(prev, Some(Tok::Dash | Tok::ArrowLeft))),
                Tok::LParen | Tok::LBrace => open.push(false),
                Tok::RParen | Tok::RBracket | Tok::RBrace => {
                    open.pop();
                }
                Tok::Keyword(Kw::Return | Kw::With) if starts_clause(tok, prev) => {
                    items_at = Some(open.len());
                    unaliased = !has_alias(&tokens[i + 1..]);
                }
                Tok::Ident(name)
                    if matches!(prev, Some(Tok::Dollar)) && !shape.names.contains(name) =>
                {
                    shape.names.push(name.clone());
                }
                Tok::Int(_) | Tok::Float(_) | Tok::Str(_) => {
                    let pinned = open.last() == Some(&true)
                        || matches!(prev, Some(Tok::Keyword(Kw::Skip | Kw::Limit)))
                        || (items_at.is_some() && unaliased);
                    lifted = lift && !pinned;
                }
                _ => {}
            }
            if lifted {
                shape.key.push(SLOT);
                shape.slots.push(i);
                shape.values.push(match tok {
                    Tok::Int(n) => Value::Int(*n),
                    Tok::Float(x) => Value::float(*x),
                    Tok::Str(s) => Value::str(s.as_str()),
                    _ => unreachable!("only literal tokens are lifted"),
                });
            } else {
                encode(tok, &mut shape.key);
            }
            prev = Some(tok);
        }
        shape
    }

    /// `tokens` (the ones this shape was taken from) with each lifted
    /// literal spelled as the parameter `$` + [`lifted_name`]; both
    /// tokens keep the literal's source offset.
    pub fn rewrite(&self, tokens: &[Spanned]) -> Vec<Spanned> {
        let mut out = Vec::with_capacity(tokens.len() + self.slots.len());
        let mut slots = self.slots.iter().copied().enumerate().peekable();
        for (i, t) in tokens.iter().enumerate() {
            match slots.next_if(|&(_, at)| at == i) {
                Some((slot, _)) => {
                    out.push(Spanned {
                        tok: Tok::Dollar,
                        offset: t.offset,
                    });
                    out.push(Spanned {
                        tok: Tok::Ident(lifted_name(slot)),
                        offset: t.offset,
                    });
                }
                None => out.push(t.clone()),
            }
        }
        out
    }
}

/// Does `tok` (after `prev`) start a clause or end the statement — and
/// so, at the bracket depth of a `RETURN` / `WITH`, end its item list?
/// The `WITH` of `STARTS WITH` / `ENDS WITH` is an operator.
fn starts_clause(tok: &Tok, prev: Option<&Tok>) -> bool {
    if matches!(prev, Some(Tok::Keyword(Kw::Starts | Kw::Ends))) {
        return false;
    }
    matches!(
        tok,
        Tok::Semicolon
            | Tok::Eof
            | Tok::Keyword(
                Kw::Order
                    | Kw::Skip
                    | Kw::Limit
                    | Kw::Where
                    | Kw::Match
                    | Kw::Optional
                    | Kw::Unwind
                    | Kw::Create
                    | Kw::Merge
                    | Kw::Delete
                    | Kw::Detach
                    | Kw::Set
                    | Kw::Remove
                    | Kw::Return
                    | Kw::With
            )
    )
}

/// Does the projection item starting at `rest[0]` carry an `AS` of its
/// own (outside any bracket)?
fn has_alias(rest: &[Spanned]) -> bool {
    let mut depth = 0usize;
    let mut prev: Option<&Tok> = None;
    for t in rest {
        match &t.tok {
            Tok::LParen | Tok::LBracket | Tok::LBrace => depth += 1,
            Tok::RParen | Tok::RBracket | Tok::RBrace => match depth.checked_sub(1) {
                Some(d) => depth = d,
                None => return false,
            },
            Tok::Keyword(Kw::As) if depth == 0 => return true,
            Tok::Comma if depth == 0 => return false,
            tok if depth == 0 && starts_clause(tok, prev) => return false,
            _ => {}
        }
        prev = Some(&t.tok);
    }
    false
}

/// Key byte of a lifted literal; [`encode`] never starts a token with it.
const SLOT: u8 = 0xff;

/// Append an injective encoding of `tok`: a tag byte, then the payload
/// (length-prefixed where it varies).
fn encode(tok: &Tok, key: &mut Vec<u8>) {
    let text = |tag: u8, s: &str, key: &mut Vec<u8>| {
        key.push(tag);
        key.extend_from_slice(&(s.len() as u64).to_le_bytes());
        key.extend_from_slice(s.as_bytes());
    };
    match tok {
        Tok::Ident(s) => text(0, s, key),
        Tok::Str(s) => text(1, s, key),
        Tok::Int(n) => {
            key.push(2);
            key.extend_from_slice(&n.to_le_bytes());
        }
        Tok::Float(x) => {
            key.push(3);
            key.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Tok::Keyword(k) => {
            key.push(4);
            key.push(*k as u8);
        }
        Tok::LParen => key.push(5),
        Tok::RParen => key.push(6),
        Tok::LBracket => key.push(7),
        Tok::RBracket => key.push(8),
        Tok::LBrace => key.push(9),
        Tok::RBrace => key.push(10),
        Tok::Colon => key.push(11),
        Tok::Comma => key.push(12),
        Tok::Dot => key.push(13),
        Tok::DotDot => key.push(14),
        Tok::Semicolon => key.push(15),
        Tok::Pipe => key.push(16),
        Tok::Dash => key.push(17),
        Tok::Plus => key.push(18),
        Tok::Star => key.push(19),
        Tok::Slash => key.push(20),
        Tok::Percent => key.push(21),
        Tok::Caret => key.push(22),
        Tok::Eq => key.push(23),
        Tok::Neq => key.push(24),
        Tok::Lt => key.push(25),
        Tok::Le => key.push(26),
        Tok::Gt => key.push(27),
        Tok::Ge => key.push(28),
        Tok::ArrowRight => key.push(29),
        Tok::ArrowLeft => key.push(30),
        Tok::Dollar => key.push(31),
        Tok::Eof => key.push(32),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Clause, Expr};
    use crate::lexer::lex;
    use crate::parser::{parse_query, parse_tokens};

    fn shape(src: &str) -> Shape {
        Shape::of(&lex(src).unwrap(), true)
    }

    #[test]
    fn statements_differing_in_literals_share_a_key() {
        let a = shape("MATCH (p:Person {id: 7}) SET p.score = 3");
        let b = shape("match (p:Person {id: 123456})\n  SET p.score = 2.5 // other");
        assert_eq!(a.key, b.key);
        assert_eq!(a.values, vec![Value::Int(7), Value::Int(3)]);
        assert_eq!(b.values, vec![Value::Int(123456), Value::float(2.5)]);
        // Identifiers, labels and keys are the shape.
        assert_ne!(a.key, shape("MATCH (q:Person {id: 7}) SET q.score = 3").key);
        assert_ne!(a.key, shape("MATCH (p:Person {id: 7}) SET p.rank = 3").key);
    }

    #[test]
    fn rewritten_tokens_parse_to_the_same_tree_with_parameters() {
        let src = "MATCH (p:Post) WHERE p.len > -5 AND p.lang IN ['en', 'de'] RETURN p";
        let tokens = lex(src).unwrap();
        let s = Shape::of(&tokens, true);
        assert_eq!(s.values.len(), 3);
        let q = parse_tokens(s.rewrite(&tokens)).unwrap();
        let Clause::Match {
            where_clause: Some(w),
            ..
        } = &q.clauses[0]
        else {
            panic!()
        };
        let text = w.to_string();
        assert_eq!(text, "((p.len > (-$`0)) AND (p.lang IN [$`1, $`2]))");
        assert!(matches!(parse_query(src), Ok(exact) if exact != q));
    }

    #[test]
    fn grammar_literals_stay_in_the_shape() {
        // Hop bounds and SKIP / LIMIT counts: not lifted, and part of
        // the key.
        let a = shape("MATCH (a)-[:R*1..3 {w: 2}]->(b) RETURN b SKIP 1 LIMIT 5");
        assert_eq!(a.values, vec![Value::Int(2)]);
        let b = shape("MATCH (a)-[:R*1..4 {w: 2}]->(b) RETURN b SKIP 1 LIMIT 5");
        assert_ne!(a.key, b.key);
        let c = shape("MATCH (a)-[:R*1..3 {w: 9}]->(b) RETURN b SKIP 1 LIMIT 6");
        assert_ne!(a.key, c.key);
        assert!(shape("MATCH (a)<-[e:R*2]-(b) RETURN b").values.is_empty());
        // `null`, `true`, `false` are keywords.
        assert!(shape("MATCH (n) WHERE n.x IS NULL OR n.y = true RETURN n")
            .values
            .is_empty());
        // Multiplication is not a hop bound.
        assert_eq!(
            shape("MATCH (n) WHERE n.x * 3 = [1][0] RETURN n").values,
            vec![Value::Int(3), Value::Int(1), Value::Int(0)]
        );
    }

    #[test]
    fn literals_naming_a_result_column_stay() {
        let s = shape("MATCH (p) WHERE p.a = 1 RETURN p.len > 5, 7, 'x', p.b + 2 AS q, size([3])");
        assert_eq!(s.values, vec![Value::Int(1), Value::Int(2)]);
        // ... in WITH too, but STARTS WITH is an operator, and the
        // clauses after the items lift again.
        let s = shape(
            "MATCH (p) WHERE p.n STARTS WITH 'a' WITH p, 1 AS one, 2 WHERE one < 3 RETURN p AS p",
        );
        assert_eq!(
            s.values,
            vec![Value::str("a"), Value::Int(1), Value::Int(3)]
        );
        let s = shape("MATCH (p) RETURN p.n ENDS WITH 'z', p.n STARTS WITH 'a' AS a, 1");
        assert_eq!(s.values, vec![Value::str("a")]);
        // Each item decides for itself.
        assert!(shape("RETURN [1] AS l").values.len() == 1);
        assert!(shape("RETURN size([1]), 2 AS two").values == vec![Value::Int(2)]);
    }

    #[test]
    fn user_parameters_are_collected_and_stay_in_the_key() {
        let s = shape("MATCH (p {id: $k}) WHERE p.x = $k OR p.y = $other SET p.z = 1");
        assert_eq!(s.names, vec!["k".to_string(), "other".to_string()]);
        assert_eq!(s.values, vec![Value::Int(1)]);
        assert_ne!(
            s.key,
            shape("MATCH (p {id: $j}) WHERE p.x = $j OR p.y = $other SET p.z = 1").key
        );
        // A backticked name can spell anything but a lifted name.
        let tokens = lex("RETURN $`0` AS a, 5 AS b").unwrap();
        let s = Shape::of(&tokens, true);
        let q = parse_tokens(s.rewrite(&tokens)).unwrap();
        let items = &q.return_clause().unwrap().items;
        assert_eq!(items[0].expr, Expr::Parameter("0".into()));
        assert_eq!(items[1].expr, Expr::Parameter(lifted_name(0)));
    }

    #[test]
    fn exact_shapes_lift_nothing_and_keys_are_injective() {
        let tokens = lex("MATCH (p {id: 7}) RETURN p").unwrap();
        let exact = Shape::of(&tokens, false);
        assert!(exact.values.is_empty());
        assert_eq!(exact.rewrite(&tokens), tokens);
        assert_ne!(exact.key, Shape::of(&tokens, true).key);
        // Identifier boundaries and literal kinds cannot blur.
        assert_ne!(shape("RETURN ab AS x").key, shape("RETURN a AS x").key);
        let exact = |s: &str| Shape::of(&lex(s).unwrap(), false).key;
        assert_ne!(exact("RETURN 1 AS x"), exact("RETURN 1.0 AS x"));
        assert_ne!(exact("RETURN '1' AS x"), exact("RETURN `1` AS x"));
    }

    #[test]
    fn unbalanced_and_truncated_input_does_not_panic() {
        for src in [
            "RETURN",
            "RETURN 1,",
            ")]} 1",
            "WITH",
            "RETURN (1",
            "-[",
            "$",
            "$ 1",
        ] {
            let tokens = lex(src).unwrap();
            let s = Shape::of(&tokens, true);
            let _ = parse_tokens(s.rewrite(&tokens));
        }
    }
}
