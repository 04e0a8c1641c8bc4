//! Seeded text mutation shared by the fuzz tests: a reproducible RNG and
//! byte- and token-level mutants of a Cypher statement.

use pgq_parser::lexer::lex;
use pgq_parser::token::Tok;

/// xorshift64*: the stream must repeat exactly per seed.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

/// Source text of a token (the inverse of the lexer, up to spacing).
fn spell(tok: &Tok) -> String {
    match tok {
        Tok::Ident(s) if s.chars().all(|c| c.is_alphanumeric() || c == '_') && !s.is_empty() => {
            s.clone()
        }
        Tok::Ident(s) => format!("`{s}`"),
        Tok::Keyword(k) => format!("{k:?}").to_uppercase(),
        Tok::Int(i) => i.to_string(),
        Tok::Float(x) => format!("{x:?}"),
        Tok::Str(s) => format!("'{}'", s.replace('\\', "\\\\").replace('\'', "\\'")),
        Tok::LParen => "(".into(),
        Tok::RParen => ")".into(),
        Tok::LBracket => "[".into(),
        Tok::RBracket => "]".into(),
        Tok::LBrace => "{".into(),
        Tok::RBrace => "}".into(),
        Tok::Colon => ":".into(),
        Tok::Comma => ",".into(),
        Tok::Dot => ".".into(),
        Tok::DotDot => "..".into(),
        Tok::Semicolon => ";".into(),
        Tok::Pipe => "|".into(),
        Tok::Dash => "-".into(),
        Tok::Plus => "+".into(),
        Tok::Star => "*".into(),
        Tok::Slash => "/".into(),
        Tok::Percent => "%".into(),
        Tok::Caret => "^".into(),
        Tok::Eq => "=".into(),
        Tok::Neq => "<>".into(),
        Tok::Lt => "<".into(),
        Tok::Le => "<=".into(),
        Tok::Gt => ">".into(),
        Tok::Ge => ">=".into(),
        Tok::ArrowRight => "->".into(),
        Tok::ArrowLeft => "<-".into(),
        Tok::Dollar => "$".into(),
        Tok::Eof => String::new(),
    }
}

/// One to two byte edits (replace, insert, delete) or token edits
/// (delete, duplicate, swap, replace by a token of `pool`) of `base`.
pub fn mutate(rng: &mut Rng, base: &str, pool: &[Tok]) -> String {
    const BYTES: &[u8] = b"()[]{}:,.;|-+*/%^=<>$'\"`\\ 0123456789abpxRETURNASWITHLIMIT_\n";
    if rng.below(2) == 0 {
        // Byte level: replace, insert or delete (on a char boundary).
        let mut bytes = base.as_bytes().to_vec();
        for _ in 0..1 + rng.below(2) {
            let at = rng
                .below(bytes.len().max(1))
                .min(bytes.len().saturating_sub(1));
            match rng.below(3) {
                0 if !bytes.is_empty() => bytes[at] = *rng.pick(BYTES),
                1 => bytes.insert(at, *rng.pick(BYTES)),
                _ if bytes.len() > 1 => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    } else {
        // Token level: delete, duplicate, swap or replace by a token of
        // some statement.
        let mut toks: Vec<Tok> = lex(base).unwrap().into_iter().map(|s| s.tok).collect();
        toks.pop(); // Eof
        for _ in 0..1 + rng.below(2) {
            if toks.is_empty() {
                break;
            }
            let at = rng.below(toks.len());
            match rng.below(4) {
                0 => {
                    toks.remove(at);
                }
                1 => toks.insert(at, toks[at].clone()),
                2 => {
                    let other = rng.below(toks.len());
                    toks.swap(at, other);
                }
                _ => toks[at] = rng.pick(pool).clone(),
            }
        }
        toks.iter().map(spell).collect::<Vec<_>>().join(" ")
    }
}
