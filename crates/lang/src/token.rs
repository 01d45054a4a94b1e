//! Token definitions.

use std::fmt;

use crate::intern::{Interner, Sym, SEEDED};

/// A lexical token with its source line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Token {
    /// The token's kind and payload.
    pub(crate) kind: TokenKind,
    /// 1-based source line.
    pub(crate) line: u32,
}

/// The kinds of token the lexer produces. Every payload is plain data, so
/// a token is copied, never moved out of the stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum TokenKind {
    /// An identifier that is not a keyword.
    Ident(Sym),
    /// A reserved word.
    Keyword(Keyword),
    /// An integer literal (decimal, hex, or char).
    Int(i64),
    /// A float literal.
    Float(f64),
    /// A string literal: its index in the lexer's table of (unescaped)
    /// string contents.
    Str(u32),
    /// A punctuation or operator token.
    Punct(Punct),
    /// End of input.
    Eof,
}

/// The reserved words. Each one's interned symbol is its discriminant
/// (see [`SEEDED`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Keyword {
    Fn,
    Global,
    Var,
    If,
    Else,
    While,
    Do,
    For,
    Switch,
    Case,
    Default,
    Break,
    Continue,
    Return,
    Int,
    Float,
}

impl Keyword {
    const ALL: [Keyword; 16] = [
        Keyword::Fn,
        Keyword::Global,
        Keyword::Var,
        Keyword::If,
        Keyword::Else,
        Keyword::While,
        Keyword::Do,
        Keyword::For,
        Keyword::Switch,
        Keyword::Case,
        Keyword::Default,
        Keyword::Break,
        Keyword::Continue,
        Keyword::Return,
        Keyword::Int,
        Keyword::Float,
    ];

    /// The keyword whose interned symbol is `sym`, if any.
    pub(crate) fn of(sym: Sym) -> Option<Keyword> {
        Keyword::ALL.get(sym.index()).copied()
    }

    /// The keyword's symbol in every interner.
    pub(crate) fn sym(self) -> Sym {
        Sym::seeded(self as usize)
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(SEEDED[*self as usize])
    }
}

/// Punctuation and operator tokens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Punct {
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Colon,
    Arrow,
    Assign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    Bang,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Shl,
    Shr,
    At,
}

impl fmt::Display for Punct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Punct::LParen => "(",
            Punct::RParen => ")",
            Punct::LBrace => "{",
            Punct::RBrace => "}",
            Punct::LBracket => "[",
            Punct::RBracket => "]",
            Punct::Comma => ",",
            Punct::Semi => ";",
            Punct::Colon => ":",
            Punct::Arrow => "->",
            Punct::Assign => "=",
            Punct::Plus => "+",
            Punct::Minus => "-",
            Punct::Star => "*",
            Punct::Slash => "/",
            Punct::Percent => "%",
            Punct::EqEq => "==",
            Punct::NotEq => "!=",
            Punct::Lt => "<",
            Punct::Le => "<=",
            Punct::Gt => ">",
            Punct::Ge => ">=",
            Punct::AndAnd => "&&",
            Punct::OrOr => "||",
            Punct::Bang => "!",
            Punct::Amp => "&",
            Punct::Pipe => "|",
            Punct::Caret => "^",
            Punct::Tilde => "~",
            Punct::Shl => "<<",
            Punct::Shr => ">>",
            Punct::At => "@",
        };
        f.write_str(s)
    }
}

/// A token as a diagnostic names it, with the names and string contents
/// it refers to.
pub(crate) struct Shown<'a, 's> {
    pub(crate) kind: TokenKind,
    pub(crate) names: &'a Interner<'s>,
    pub(crate) strings: &'a [String],
}

impl fmt::Display for Shown<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            TokenKind::Ident(s) => write!(f, "`{}`", self.names.name(s)),
            TokenKind::Keyword(k) => write!(f, "`{k}`"),
            TokenKind::Int(v) => write!(f, "integer literal {v}"),
            TokenKind::Float(v) => write!(f, "float literal {v}"),
            TokenKind::Str(i) => write!(f, "string literal {:?}", self.strings[i as usize]),
            TokenKind::Punct(p) => write!(f, "`{p}`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_are_their_seeded_symbols() {
        let names = Interner::new();
        for (i, k) in Keyword::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
            assert_eq!(names.get(SEEDED[i]), Some(k.sym()));
            assert_eq!(Keyword::of(k.sym()), Some(*k));
            assert_eq!(k.to_string(), SEEDED[i]);
        }
        assert_eq!(Keyword::of(names.get("len").unwrap()), None);
    }
}
