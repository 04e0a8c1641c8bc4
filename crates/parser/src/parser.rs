//! Recursive-descent / Pratt parser for the openCypher fragment.

use pgq_common::dir::Direction;
use pgq_common::value::Value;

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer::lex;
use crate::token::{Kw, Spanned, Tok};

/// Parse a complete query.
pub fn parse_query(src: &str) -> Result<Query, ParseError> {
    parse_tokens(lex(src)?)
}

/// Parse one complete query from its tokens ([`lex`]'s output, or that
/// with literals lifted out by [`crate::shape::Shape::rewrite`]).
pub fn parse_tokens(mut tokens: Vec<Spanned>) -> Result<Query, ParseError> {
    // The parser reads one token ahead of everything it consumes.
    if tokens.last().map(|t| &t.tok) != Some(&Tok::Eof) {
        let offset = tokens.last().map_or(0, |t| t.offset);
        tokens.push(Spanned {
            tok: Tok::Eof,
            offset,
        });
    }
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

/// Parse a `;`-separated script into individual queries. Empty statements
/// (stray semicolons, trailing newline) are skipped.
pub fn parse_script(src: &str) -> Result<Vec<Query>, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut out = Vec::new();
    loop {
        while p.eat(&Tok::Semicolon) {}
        if p.peek() == &Tok::Eof {
            break;
        }
        out.push(p.query()?);
        if p.peek() != &Tok::Eof && !p.eat(&Tok::Semicolon) {
            return Err(p.err(format!(
                "expected `;` between statements, found {}",
                p.peek()
            )));
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        self.tokens.get(self.pos + 1).map_or(&Tok::Eof, |s| &s.tok)
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        self.eat(&Tok::Keyword(kw))
    }

    fn expect(&mut self, tok: &Tok) -> Result<(), ParseError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.err(format!("expected {tok}, found {}", self.peek())))
        }
    }

    fn expect_kw(&mut self, kw: Kw) -> Result<(), ParseError> {
        self.expect(&Tok::Keyword(kw))
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.offset(), message)
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        self.eat(&Tok::Semicolon);
        if self.peek() == &Tok::Eof {
            Ok(())
        } else {
            Err(self.err(format!("unexpected trailing {}", self.peek())))
        }
    }

    /// Identifier, also admitting a few non-structural keywords so that
    /// `count`, `order` etc. remain usable as property keys.
    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            Tok::Keyword(Kw::Count) => {
                self.bump();
                Ok("count".into())
            }
            other => Err(self.err(format!("expected {what}, found {other}"))),
        }
    }

    // ---- query & clauses -------------------------------------------------

    fn query(&mut self) -> Result<Query, ParseError> {
        let mut clauses = Vec::new();
        loop {
            match self.peek() {
                Tok::Keyword(Kw::Match) => {
                    self.bump();
                    clauses.push(self.match_clause(false)?);
                }
                Tok::Keyword(Kw::Optional) => {
                    self.bump();
                    self.expect_kw(Kw::Match)?;
                    clauses.push(self.match_clause(true)?);
                }
                Tok::Keyword(Kw::Unwind) => {
                    self.bump();
                    let expr = self.expr()?;
                    self.expect_kw(Kw::As)?;
                    let alias = self.ident("variable after AS")?;
                    clauses.push(Clause::Unwind { expr, alias });
                }
                Tok::Keyword(Kw::With) => {
                    self.bump();
                    let body = self.return_body()?;
                    let where_clause = if self.eat_kw(Kw::Where) {
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    clauses.push(Clause::With { body, where_clause });
                }
                Tok::Keyword(Kw::Create) => {
                    self.bump();
                    clauses.push(Clause::Create(self.pattern()?));
                }
                Tok::Keyword(Kw::Merge) => {
                    return Err(self.err("MERGE is not supported (outside the paper's fragment)"));
                }
                Tok::Keyword(Kw::Detach) => {
                    self.bump();
                    self.expect_kw(Kw::Delete)?;
                    clauses.push(self.delete_clause(true)?);
                }
                Tok::Keyword(Kw::Delete) => {
                    self.bump();
                    clauses.push(self.delete_clause(false)?);
                }
                Tok::Keyword(Kw::Set) => {
                    self.bump();
                    clauses.push(Clause::Set(self.set_items()?));
                }
                Tok::Keyword(Kw::Remove) => {
                    self.bump();
                    clauses.push(Clause::Remove(self.remove_items()?));
                }
                Tok::Keyword(Kw::Return) => {
                    self.bump();
                    clauses.push(Clause::Return(self.return_body()?));
                }
                _ => break,
            }
        }
        if clauses.is_empty() {
            return Err(self.err("expected a clause (MATCH, CREATE, RETURN, ...)"));
        }
        Ok(Query { clauses })
    }

    fn match_clause(&mut self, optional: bool) -> Result<Clause, ParseError> {
        let pattern = self.pattern()?;
        let where_clause = if self.eat_kw(Kw::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Clause::Match {
            optional,
            pattern,
            where_clause,
        })
    }

    fn delete_clause(&mut self, detach: bool) -> Result<Clause, ParseError> {
        let mut exprs = vec![self.expr()?];
        while self.eat(&Tok::Comma) {
            exprs.push(self.expr()?);
        }
        Ok(Clause::Delete { detach, exprs })
    }

    fn set_items(&mut self) -> Result<Vec<SetItem>, ParseError> {
        let mut items = Vec::new();
        loop {
            let variable = self.ident("variable in SET")?;
            if self.eat(&Tok::Dot) {
                let key = self.ident("property key")?;
                self.expect(&Tok::Eq)?;
                let value = self.expr()?;
                items.push(SetItem::Property {
                    variable,
                    key,
                    value,
                });
            } else if self.peek() == &Tok::Colon {
                let mut labels = Vec::new();
                while self.eat(&Tok::Colon) {
                    labels.push(self.ident("label")?);
                }
                items.push(SetItem::Labels { variable, labels });
            } else {
                return Err(self.err("expected `.key = value` or `:Label` in SET"));
            }
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn remove_items(&mut self) -> Result<Vec<RemoveItem>, ParseError> {
        let mut items = Vec::new();
        loop {
            let variable = self.ident("variable in REMOVE")?;
            if self.eat(&Tok::Dot) {
                let key = self.ident("property key")?;
                items.push(RemoveItem::Property { variable, key });
            } else if self.peek() == &Tok::Colon {
                let mut labels = Vec::new();
                while self.eat(&Tok::Colon) {
                    labels.push(self.ident("label")?);
                }
                items.push(RemoveItem::Labels { variable, labels });
            } else {
                return Err(self.err("expected `.key` or `:Label` in REMOVE"));
            }
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn return_body(&mut self) -> Result<ReturnClause, ParseError> {
        let distinct = self.eat_kw(Kw::Distinct);
        if self.peek() == &Tok::Star {
            return Err(self.err("RETURN * is not supported; list the variables explicitly"));
        }
        let mut items = vec![self.return_item()?];
        while self.eat(&Tok::Comma) {
            items.push(self.return_item()?);
        }
        let mut order_by = Vec::new();
        if self.eat_kw(Kw::Order) {
            self.expect_kw(Kw::By)?;
            loop {
                let e = self.expr()?;
                let asc = if self.eat_kw(Kw::Desc) {
                    false
                } else {
                    self.eat_kw(Kw::Asc);
                    true
                };
                order_by.push((e, asc));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        let skip = if self.eat_kw(Kw::Skip) {
            Some(self.expr()?)
        } else {
            None
        };
        let limit = if self.eat_kw(Kw::Limit) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(ReturnClause {
            distinct,
            items,
            order_by,
            skip,
            limit,
        })
    }

    fn return_item(&mut self) -> Result<ReturnItem, ParseError> {
        let expr = self.expr()?;
        let alias = if self.eat_kw(Kw::As) {
            Some(self.ident("alias after AS")?)
        } else {
            None
        };
        Ok(ReturnItem { expr, alias })
    }

    // ---- patterns ----------------------------------------------------------

    fn pattern(&mut self) -> Result<Pattern, ParseError> {
        let mut paths = vec![self.path_pattern()?];
        while self.eat(&Tok::Comma) {
            paths.push(self.path_pattern()?);
        }
        Ok(Pattern { paths })
    }

    fn path_pattern(&mut self) -> Result<PathPattern, ParseError> {
        // `t = (...)` — a path variable.
        let variable = if matches!(self.peek(), Tok::Ident(_)) && self.peek2() == &Tok::Eq {
            let v = self.ident("path variable")?;
            self.expect(&Tok::Eq)?;
            Some(v)
        } else {
            None
        };
        let start = self.node_pattern()?;
        let mut steps = Vec::new();
        while matches!(self.peek(), Tok::Dash | Tok::ArrowLeft) {
            let rel = self.rel_pattern()?;
            let node = self.node_pattern()?;
            steps.push((rel, node));
        }
        Ok(PathPattern {
            variable,
            start,
            steps,
        })
    }

    fn node_pattern(&mut self) -> Result<NodePattern, ParseError> {
        self.expect(&Tok::LParen)?;
        let variable = match self.peek() {
            Tok::Ident(_) => Some(self.ident("node variable")?),
            _ => None,
        };
        let mut labels = Vec::new();
        while self.eat(&Tok::Colon) {
            labels.push(self.ident("label")?);
        }
        let props = if self.peek() == &Tok::LBrace {
            self.property_map()?
        } else {
            Vec::new()
        };
        self.expect(&Tok::RParen)?;
        Ok(NodePattern {
            variable,
            labels,
            props,
        })
    }

    fn rel_pattern(&mut self) -> Result<RelPattern, ParseError> {
        // Left half: `-` or `<-`.
        let left_in = match self.bump() {
            Tok::Dash => false,
            Tok::ArrowLeft => true,
            other => return Err(self.err(format!("expected relationship pattern, found {other}"))),
        };

        let mut rel = RelPattern::default();
        if self.eat(&Tok::LBracket) {
            if matches!(self.peek(), Tok::Ident(_)) {
                rel.variable = Some(self.ident("relationship variable")?);
            }
            if self.eat(&Tok::Colon) {
                rel.types.push(self.ident("relationship type")?);
                while self.eat(&Tok::Pipe) {
                    self.eat(&Tok::Colon);
                    rel.types.push(self.ident("relationship type")?);
                }
            }
            if self.eat(&Tok::Star) {
                rel.range = Some(self.range_spec()?);
            }
            if self.peek() == &Tok::LBrace {
                rel.props = self.property_map()?;
            }
            self.expect(&Tok::RBracket)?;
        }

        // Right half: `->` or `-`.
        let right_out = match self.bump() {
            Tok::ArrowRight => true,
            Tok::Dash => false,
            other => {
                return Err(self.err(format!(
                    "expected `-` or `->` to close relationship pattern, found {other}"
                )))
            }
        };

        rel.direction = match (left_in, right_out) {
            (false, true) => Direction::Out,
            (true, false) => Direction::In,
            (false, false) => Direction::Both,
            (true, true) => {
                return Err(self.err("relationship cannot point both ways (`<-[..]->`)"))
            }
        };
        Ok(rel)
    }

    fn range_spec(&mut self) -> Result<RangeSpec, ParseError> {
        // After `*`: [min] [`..` [max]]
        let mut spec = RangeSpec::DEFAULT;
        let mut saw_min = false;
        if let Tok::Int(n) = self.peek() {
            let n = *n;
            if n < 0 {
                return Err(self.err("variable-length bound must be non-negative"));
            }
            self.bump();
            spec.min = n as u32;
            spec.max = Some(n as u32); // `*3` = exactly three hops
            saw_min = true;
        }
        if self.eat(&Tok::DotDot) {
            if !saw_min {
                spec.min = 1;
            }
            spec.max = None;
            if let Tok::Int(n) = self.peek() {
                let n = *n;
                if n < 0 {
                    return Err(self.err("variable-length bound must be non-negative"));
                }
                self.bump();
                spec.max = Some(n as u32);
            }
            if let Some(max) = spec.max {
                if max < spec.min {
                    return Err(
                        self.err(format!("empty variable-length range *{}..{max}", spec.min))
                    );
                }
            }
        }
        Ok(spec)
    }

    fn property_map(&mut self) -> Result<Vec<(String, Expr)>, ParseError> {
        self.expect(&Tok::LBrace)?;
        let mut props = Vec::new();
        if self.peek() != &Tok::RBrace {
            loop {
                let key = self.ident("property key")?;
                self.expect(&Tok::Colon)?;
                let value = self.expr()?;
                props.push((key, value));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RBrace)?;
        Ok(props)
    }

    // ---- expressions (Pratt) ----------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.xor_expr()?;
        while self.eat_kw(Kw::Or) {
            let rhs = self.xor_expr()?;
            lhs = Expr::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn xor_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw(Kw::Xor) {
            let rhs = self.and_expr()?;
            lhs = Expr::Binary(BinOp::Xor, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw(Kw::And) {
            let rhs = self.not_expr()?;
            lhs = Expr::Binary(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kw(Kw::Not) {
            let inner = self.not_expr()?;
            Ok(Expr::Unary(UnOp::Not, Box::new(inner)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.additive()?;
        loop {
            let op = match self.peek() {
                Tok::Eq => BinOp::Eq,
                Tok::Neq => BinOp::Neq,
                Tok::Lt => BinOp::Lt,
                Tok::Le => BinOp::Le,
                Tok::Gt => BinOp::Gt,
                Tok::Ge => BinOp::Ge,
                Tok::Keyword(Kw::In) => BinOp::In,
                Tok::Keyword(Kw::Starts) => {
                    self.bump();
                    self.expect_kw(Kw::With)?;
                    let rhs = self.additive()?;
                    lhs = Expr::Binary(BinOp::StartsWith, Box::new(lhs), Box::new(rhs));
                    continue;
                }
                Tok::Keyword(Kw::Ends) => {
                    self.bump();
                    self.expect_kw(Kw::With)?;
                    let rhs = self.additive()?;
                    lhs = Expr::Binary(BinOp::EndsWith, Box::new(lhs), Box::new(rhs));
                    continue;
                }
                Tok::Keyword(Kw::Contains) => {
                    self.bump();
                    let rhs = self.additive()?;
                    lhs = Expr::Binary(BinOp::Contains, Box::new(lhs), Box::new(rhs));
                    continue;
                }
                Tok::Keyword(Kw::Is) => {
                    self.bump();
                    let negated = self.eat_kw(Kw::Not);
                    self.expect_kw(Kw::Null)?;
                    lhs = Expr::IsNull {
                        expr: Box::new(lhs),
                        negated,
                    };
                    continue;
                }
                _ => break,
            };
            self.bump();
            let rhs = self.additive()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Dash => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.multiplicative()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.power()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.power()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn power(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.unary()?;
        if self.eat(&Tok::Caret) {
            // Right-associative.
            let rhs = self.power()?;
            Ok(Expr::Binary(BinOp::Pow, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Tok::Dash => {
                self.bump();
                let inner = self.unary()?;
                Ok(Expr::Unary(UnOp::Neg, Box::new(inner)))
            }
            Tok::Plus => {
                self.bump();
                self.unary()
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.atom()?;
        loop {
            match self.peek() {
                Tok::Dot => {
                    self.bump();
                    let key = self.ident("property key")?;
                    e = Expr::Property(Box::new(e), key);
                }
                Tok::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(&Tok::RBracket)?;
                    e = Expr::Index(Box::new(e), Box::new(idx));
                }
                Tok::Colon if matches!(e, Expr::Variable(_)) => {
                    // Label predicate `n:Label`.
                    let mut labels = Vec::new();
                    while self.eat(&Tok::Colon) {
                        labels.push(self.ident("label")?);
                    }
                    e = Expr::HasLabel(Box::new(e), labels);
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Tok::Int(n) => {
                self.bump();
                Ok(Expr::Literal(Value::Int(n)))
            }
            Tok::Float(x) => {
                self.bump();
                Ok(Expr::Literal(Value::float(x)))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::Literal(Value::str(s)))
            }
            Tok::Keyword(Kw::True) => {
                self.bump();
                Ok(Expr::Literal(Value::Bool(true)))
            }
            Tok::Keyword(Kw::False) => {
                self.bump();
                Ok(Expr::Literal(Value::Bool(false)))
            }
            Tok::Keyword(Kw::Null) => {
                self.bump();
                Ok(Expr::Literal(Value::Null))
            }
            Tok::Keyword(Kw::Count) => {
                self.bump();
                self.expect(&Tok::LParen)?;
                if self.eat(&Tok::Star) {
                    self.expect(&Tok::RParen)?;
                    Ok(Expr::CountStar)
                } else {
                    let distinct = self.eat_kw(Kw::Distinct);
                    let arg = self.expr()?;
                    self.expect(&Tok::RParen)?;
                    Ok(Expr::Function {
                        name: "count".into(),
                        distinct,
                        args: vec![arg],
                    })
                }
            }
            Tok::Keyword(Kw::Exists) => {
                self.bump();
                self.expect(&Tok::LParen)?;
                // `exists((a)-[:R]->(b))` takes a pattern; `exists(n.p)`
                // takes an expression. A nested `(` that is a node
                // pattern (empty, identifier, `:` or `{` inside)
                // disambiguates.
                if self.peek() == &Tok::LParen {
                    // Backtracking attempt: parse as a pattern; if that
                    // fails, fall back to a parenthesised expression.
                    let saved = self.pos;
                    match self.path_pattern().and_then(|p| {
                        self.expect(&Tok::RParen)?;
                        Ok(p)
                    }) {
                        Ok(pattern) => return Ok(Expr::PatternPredicate(Box::new(pattern))),
                        Err(_) => self.pos = saved,
                    }
                    let arg = self.expr()?;
                    self.expect(&Tok::RParen)?;
                    Ok(Expr::Function {
                        name: "exists".into(),
                        distinct: false,
                        args: vec![arg],
                    })
                } else {
                    let arg = self.expr()?;
                    self.expect(&Tok::RParen)?;
                    Ok(Expr::Function {
                        name: "exists".into(),
                        distinct: false,
                        args: vec![arg],
                    })
                }
            }
            Tok::Dollar => {
                self.bump();
                let name = self.ident("parameter name")?;
                Ok(Expr::Parameter(name))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::LBracket => {
                self.bump();
                let mut items = Vec::new();
                if self.peek() != &Tok::RBracket {
                    loop {
                        items.push(self.expr()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RBracket)?;
                Ok(Expr::List(items))
            }
            Tok::LBrace => {
                let entries = self.property_map()?;
                Ok(Expr::Map(entries))
            }
            Tok::Ident(name) => {
                if self.peek2() == &Tok::LParen {
                    self.bump();
                    self.bump(); // `(`
                    let distinct = self.eat_kw(Kw::Distinct);
                    let mut args = Vec::new();
                    if self.peek() != &Tok::RParen {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Tok::RParen)?;
                    Ok(Expr::Function {
                        name: name.to_ascii_lowercase(),
                        distinct,
                        args,
                    })
                } else {
                    self.bump();
                    Ok(Expr::Variable(name))
                }
            }
            other => Err(self.err(format!("expected an expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Query {
        parse_query(src).unwrap_or_else(|e| panic!("{}", e.render(src)))
    }

    #[test]
    fn parses_running_example() {
        let q = parse(
            "MATCH t = (p:Post)-[:REPLY*]->(c:Comm)\n\
             WHERE p.lang = c.lang\n\
             RETURN p, t",
        );
        assert_eq!(q.clauses.len(), 2);
        let Clause::Match {
            optional,
            pattern,
            where_clause,
        } = &q.clauses[0]
        else {
            panic!("expected MATCH");
        };
        assert!(!optional);
        assert!(where_clause.is_some());
        let path = &pattern.paths[0];
        assert_eq!(path.variable.as_deref(), Some("t"));
        assert_eq!(path.start.labels, vec!["Post"]);
        let (rel, node) = &path.steps[0];
        assert_eq!(rel.types, vec!["REPLY"]);
        assert_eq!(rel.range, Some(RangeSpec { min: 1, max: None }));
        assert_eq!(rel.direction, Direction::Out);
        assert_eq!(node.labels, vec!["Comm"]);
        let ret = q.return_clause().unwrap();
        assert_eq!(ret.items.len(), 2);
    }

    #[test]
    fn range_specs() {
        let cases = [
            ("*", RangeSpec { min: 1, max: None }),
            (
                "*3",
                RangeSpec {
                    min: 3,
                    max: Some(3),
                },
            ),
            (
                "*1..4",
                RangeSpec {
                    min: 1,
                    max: Some(4),
                },
            ),
            (
                "*..4",
                RangeSpec {
                    min: 1,
                    max: Some(4),
                },
            ),
            ("*2..", RangeSpec { min: 2, max: None }),
            ("*0..", RangeSpec { min: 0, max: None }),
        ];
        for (spec, want) in cases {
            let q = parse(&format!("MATCH (a)-[:R{spec}]->(b) RETURN a"));
            let Clause::Match { pattern, .. } = &q.clauses[0] else {
                panic!()
            };
            assert_eq!(pattern.paths[0].steps[0].0.range, Some(want), "{spec}");
        }
    }

    #[test]
    fn empty_range_is_rejected() {
        assert!(parse_query("MATCH (a)-[:R*3..1]->(b) RETURN a").is_err());
    }

    #[test]
    fn directions() {
        for (src, want) in [
            ("MATCH (a)-[:R]->(b) RETURN a", Direction::Out),
            ("MATCH (a)<-[:R]-(b) RETURN a", Direction::In),
            ("MATCH (a)-[:R]-(b) RETURN a", Direction::Both),
        ] {
            let q = parse(src);
            let Clause::Match { pattern, .. } = &q.clauses[0] else {
                panic!()
            };
            assert_eq!(pattern.paths[0].steps[0].0.direction, want, "{src}");
        }
        assert!(parse_query("MATCH (a)<-[:R]->(b) RETURN a").is_err());
    }

    #[test]
    fn bracketless_relationships() {
        let q = parse("MATCH (a)-->(b)<--(c) RETURN a");
        let Clause::Match { pattern, .. } = &q.clauses[0] else {
            panic!()
        };
        assert_eq!(pattern.paths[0].steps.len(), 2);
        assert_eq!(pattern.paths[0].steps[0].0.direction, Direction::Out);
        assert_eq!(pattern.paths[0].steps[1].0.direction, Direction::In);
    }

    #[test]
    fn multiple_types_and_props() {
        let q = parse("MATCH (a)-[e:KNOWS|LIKES {since: 2010}]->(b) RETURN e");
        let Clause::Match { pattern, .. } = &q.clauses[0] else {
            panic!()
        };
        let rel = &pattern.paths[0].steps[0].0;
        assert_eq!(rel.types, vec!["KNOWS", "LIKES"]);
        assert_eq!(rel.variable.as_deref(), Some("e"));
        assert_eq!(rel.props.len(), 1);
    }

    #[test]
    fn expression_precedence() {
        let q = parse("MATCH (n) WHERE n.a + n.b * 2 = 7 AND NOT n.c RETURN n");
        let Clause::Match {
            where_clause: Some(w),
            ..
        } = &q.clauses[0]
        else {
            panic!()
        };
        // Top node must be AND.
        let Expr::Binary(BinOp::And, l, _) = w else {
            panic!("want AND at top, got {w:?}")
        };
        // Left of AND is the equality.
        let Expr::Binary(BinOp::Eq, add, _) = l.as_ref() else {
            panic!()
        };
        let Expr::Binary(BinOp::Add, _, mul) = add.as_ref() else {
            panic!()
        };
        assert!(matches!(mul.as_ref(), Expr::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn power_is_right_associative() {
        let q = parse("MATCH (n) WHERE n.x = 2 ^ 3 ^ 2 RETURN n");
        let Clause::Match {
            where_clause: Some(w),
            ..
        } = &q.clauses[0]
        else {
            panic!()
        };
        let Expr::Binary(BinOp::Eq, _, pow) = w else {
            panic!()
        };
        let Expr::Binary(BinOp::Pow, _, right) = pow.as_ref() else {
            panic!()
        };
        assert!(matches!(right.as_ref(), Expr::Binary(BinOp::Pow, _, _)));
    }

    #[test]
    fn string_predicates_and_in() {
        parse("MATCH (n) WHERE n.name STARTS WITH 'A' AND n.name ENDS WITH 'z' RETURN n");
        parse("MATCH (n) WHERE n.name CONTAINS 'bo' RETURN n");
        parse("MATCH (n) WHERE n.lang IN ['en', 'de'] RETURN n");
    }

    #[test]
    fn is_null_predicates() {
        let q = parse("MATCH (n) WHERE n.x IS NOT NULL RETURN n");
        let Clause::Match {
            where_clause: Some(w),
            ..
        } = &q.clauses[0]
        else {
            panic!()
        };
        assert!(matches!(w, Expr::IsNull { negated: true, .. }));
    }

    #[test]
    fn label_predicate_in_where() {
        let q = parse("MATCH (n) WHERE n:Post:Hot RETURN n");
        let Clause::Match {
            where_clause: Some(w),
            ..
        } = &q.clauses[0]
        else {
            panic!()
        };
        let Expr::HasLabel(_, labels) = w else {
            panic!()
        };
        assert_eq!(labels, &vec!["Post".to_string(), "Hot".to_string()]);
    }

    #[test]
    fn aggregates_and_functions() {
        let q = parse("MATCH (n:Post) RETURN count(*) AS c, count(DISTINCT n.lang), size(n.tags)");
        let ret = q.return_clause().unwrap();
        assert_eq!(ret.items[0].expr, Expr::CountStar);
        assert_eq!(ret.items[0].alias.as_deref(), Some("c"));
        let Expr::Function { name, distinct, .. } = &ret.items[1].expr else {
            panic!()
        };
        assert_eq!(name, "count");
        assert!(distinct);
    }

    #[test]
    fn order_skip_limit_parsed() {
        let q = parse("MATCH (n:Post) RETURN n ORDER BY n.len DESC, n.id SKIP 2 LIMIT 3");
        let ret = q.return_clause().unwrap();
        assert_eq!(ret.order_by.len(), 2);
        assert!(!ret.order_by[0].1);
        assert!(ret.order_by[1].1);
        assert!(ret.skip.is_some());
        assert!(ret.limit.is_some());
    }

    #[test]
    fn update_clauses() {
        let q = parse("CREATE (p:Post {lang: 'en'})-[:REPLY]->(c:Comm)");
        assert!(q.is_update());
        let q = parse("MATCH (n:Post) DETACH DELETE n");
        let Clause::Delete { detach, exprs } = &q.clauses[1] else {
            panic!()
        };
        assert!(detach);
        assert_eq!(exprs.len(), 1);
        let q = parse("MATCH (n:Post) SET n.lang = 'de', n:Hot");
        let Clause::Set(items) = &q.clauses[1] else {
            panic!()
        };
        assert_eq!(items.len(), 2);
        let q = parse("MATCH (n:Post) REMOVE n.lang, n:Hot");
        let Clause::Remove(items) = &q.clauses[1] else {
            panic!()
        };
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn unwind_clause() {
        let q = parse("MATCH t = (a)-[:R*]->(b) UNWIND nodes(t) AS n RETURN n");
        let Clause::Unwind { alias, .. } = &q.clauses[1] else {
            panic!()
        };
        assert_eq!(alias, "n");
    }

    #[test]
    fn with_and_optional_match_parse() {
        parse("MATCH (a) WITH a AS x RETURN x");
        parse("MATCH (a) OPTIONAL MATCH (a)-[:R]->(b) RETURN a, b");
    }

    #[test]
    fn merge_is_rejected_with_clear_error() {
        let err = parse_query("MERGE (n:Post) RETURN n").unwrap_err();
        assert!(err.message.contains("MERGE"));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(parse_query("MATCH (n) RETURN n n").is_err());
    }

    #[test]
    fn multiple_paths_in_match() {
        let q = parse("MATCH (a:Post), (b:Comm) RETURN a, b");
        let Clause::Match { pattern, .. } = &q.clauses[0] else {
            panic!()
        };
        assert_eq!(pattern.paths.len(), 2);
    }

    #[test]
    fn anonymous_nodes_and_rels() {
        let q = parse("MATCH (:Post)-[]->() RETURN 1");
        let Clause::Match { pattern, .. } = &q.clauses[0] else {
            panic!()
        };
        let p = &pattern.paths[0];
        assert!(p.start.variable.is_none());
        assert!(p.steps[0].1.variable.is_none());
    }

    #[test]
    fn parameters_parse() {
        let q = parse("MATCH (n) WHERE n.lang = $lang RETURN n");
        let Clause::Match {
            where_clause: Some(w),
            ..
        } = &q.clauses[0]
        else {
            panic!()
        };
        let Expr::Binary(BinOp::Eq, _, r) = w else {
            panic!()
        };
        assert_eq!(r.as_ref(), &Expr::Parameter("lang".into()));
    }
}
