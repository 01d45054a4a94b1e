//! The lexer.

use crate::error::CompileError;
use crate::intern::Interner;
use crate::token::{Keyword, Punct, Token, TokenKind};

/// What the lexer makes of one source: its tokens, the contents of its
/// string literals (indexed by [`TokenKind::Str`]), and the interner
/// holding its names.
pub(crate) struct Lexed<'s> {
    /// The token stream, ending with [`TokenKind::Eof`].
    pub(crate) tokens: Vec<Token>,
    /// Each string literal's unescaped contents, in source order.
    pub(crate) strings: Vec<String>,
    /// Every name the source uses.
    pub(crate) names: Interner<'s>,
}

/// Lexes `source` into a token stream ending with [`TokenKind::Eof`].
///
/// # Errors
///
/// Returns a [`CompileError`] on malformed literals, unterminated comments or
/// strings, and unexpected characters.
pub(crate) fn lex(source: &str) -> Result<Lexed<'_>, CompileError> {
    let mut lexer = Lexer {
        source,
        bytes: source.as_bytes(),
        pos: 0,
        line: 1,
        strings: Vec::new(),
        names: Interner::new(),
    };
    let tokens = lexer.run()?;
    Ok(Lexed {
        tokens,
        strings: lexer.strings,
        names: lexer.names,
    })
}

struct Lexer<'s> {
    source: &'s str,
    bytes: &'s [u8],
    pos: usize,
    line: u32,
    strings: Vec<String>,
    names: Interner<'s>,
}

impl<'s> Lexer<'s> {
    fn run(&mut self) -> Result<Vec<Token>, CompileError> {
        // Suite sources average about four bytes per token.
        let mut tokens = Vec::with_capacity(self.bytes.len() / 4 + 1);
        loop {
            self.skip_trivia()?;
            let line = self.line;
            let Some(c) = self.peek() else {
                tokens.push(Token {
                    kind: TokenKind::Eof,
                    line,
                });
                return Ok(tokens);
            };
            let kind = match c {
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.word(),
                b'0'..=b'9' => self.number()?,
                b'"' => self.string()?,
                b'\'' => self.char_literal()?,
                _ => self.punct()?,
            };
            tokens.push(Token { kind, line });
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    /// Advances past the bytes from the current one on that satisfy `p`.
    /// None of them may be a newline.
    fn skip_while(&mut self, p: impl Fn(u8) -> bool) {
        let rest = &self.bytes[self.pos..];
        self.pos += rest.iter().position(|&c| !p(c)).unwrap_or(rest.len());
    }

    fn skip_trivia(&mut self) -> Result<(), CompileError> {
        while let Some(&c) = self.bytes.get(self.pos) {
            match c {
                b'\n' => {
                    self.pos += 1;
                    self.line += 1;
                }
                // The rest of `u8::is_ascii_whitespace`.
                b' ' | b'\t' | b'\r' | b'\x0c' => self.pos += 1,
                b'/' => match self.peek2() {
                    Some(b'/') => self.skip_while(|c| c != b'\n'),
                    Some(b'*') => {
                        let body = &self.bytes[self.pos + 2..];
                        let Some(len) = body.windows(2).position(|w| w == b"*/") else {
                            return Err(CompileError::new(self.line, "unterminated block comment"));
                        };
                        self.line += body[..len].iter().filter(|&&c| c == b'\n').count() as u32;
                        self.pos += 2 + len + 2;
                    }
                    _ => return Ok(()),
                },
                _ => return Ok(()),
            }
        }
        Ok(())
    }

    fn number(&mut self) -> Result<TokenKind, CompileError> {
        let start = self.pos;
        let line = self.line;
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X')) {
            self.pos += 2;
            let hex_start = self.pos;
            self.skip_while(|c| c.is_ascii_hexdigit());
            return i64::from_str_radix(&self.source[hex_start..self.pos], 16)
                .map(TokenKind::Int)
                .map_err(|_| CompileError::new(line, "invalid hex literal"));
        }
        self.skip_while(|c| c.is_ascii_digit());
        let mut is_float = false;
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(c) if c.is_ascii_digit()) {
            is_float = true;
            self.pos += 1;
            self.skip_while(|c| c.is_ascii_digit());
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            let mut ahead = self.pos + 1;
            if matches!(self.bytes.get(ahead), Some(b'+') | Some(b'-')) {
                ahead += 1;
            }
            if matches!(self.bytes.get(ahead), Some(c) if c.is_ascii_digit()) {
                is_float = true;
                self.pos = ahead;
                self.skip_while(|c| c.is_ascii_digit());
            }
        }
        let text = &self.source[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(TokenKind::Float)
                .map_err(|_| CompileError::new(line, "invalid float literal"))
        } else {
            text.parse::<i64>()
                .map(TokenKind::Int)
                .map_err(|_| CompileError::new(line, "integer literal out of range"))
        }
    }

    /// An identifier or keyword: interned, so a name the source repeats
    /// costs one table probe and no allocation.
    fn word(&mut self) -> TokenKind {
        let start = self.pos;
        self.skip_while(|c| c.is_ascii_alphanumeric() || c == b'_');
        let sym = self.names.intern(&self.source[start..self.pos]);
        match Keyword::of(sym) {
            Some(k) => TokenKind::Keyword(k),
            None => TokenKind::Ident(sym),
        }
    }

    fn escape(&mut self, line: u32) -> Result<u8, CompileError> {
        match self.bump() {
            Some(b'n') => Ok(b'\n'),
            Some(b't') => Ok(b'\t'),
            Some(b'r') => Ok(b'\r'),
            Some(b'0') => Ok(0),
            Some(b'\\') => Ok(b'\\'),
            Some(b'\'') => Ok(b'\''),
            Some(b'"') => Ok(b'"'),
            _ => Err(CompileError::new(line, "invalid escape sequence")),
        }
    }

    fn string(&mut self) -> Result<TokenKind, CompileError> {
        let line = self.line;
        self.bump(); // opening quote
        let mut out = Vec::new();
        loop {
            match self.bump() {
                Some(b'"') => break,
                Some(b'\\') => out.push(self.escape(line)?),
                Some(b'\n') | None => {
                    return Err(CompileError::new(line, "unterminated string literal"))
                }
                Some(c) => out.push(c),
            }
        }
        let s = String::from_utf8(out)
            .map_err(|_| CompileError::new(line, "non-UTF-8 string literal"))?;
        self.strings.push(s);
        Ok(TokenKind::Str(self.strings.len() as u32 - 1))
    }

    fn char_literal(&mut self) -> Result<TokenKind, CompileError> {
        let line = self.line;
        self.bump(); // opening quote
        let c = match self.bump() {
            Some(b'\\') => self.escape(line)?,
            Some(b'\'') | None => return Err(CompileError::new(line, "empty char literal")),
            Some(c) => c,
        };
        if self.bump() != Some(b'\'') {
            return Err(CompileError::new(line, "unterminated char literal"));
        }
        Ok(TokenKind::Int(i64::from(c)))
    }

    fn punct(&mut self) -> Result<TokenKind, CompileError> {
        let line = self.line;
        let c = self.bump().expect("caller checked peek");
        // The second byte of a two-byte operator is never a newline.
        let two = |lexer: &mut Self, next: u8, a: Punct, b: Punct| {
            if lexer.peek() == Some(next) {
                lexer.pos += 1;
                a
            } else {
                b
            }
        };
        let p = match c {
            b'(' => Punct::LParen,
            b')' => Punct::RParen,
            b'{' => Punct::LBrace,
            b'}' => Punct::RBrace,
            b'[' => Punct::LBracket,
            b']' => Punct::RBracket,
            b',' => Punct::Comma,
            b';' => Punct::Semi,
            b':' => Punct::Colon,
            b'+' => Punct::Plus,
            b'*' => Punct::Star,
            b'/' => Punct::Slash,
            b'%' => Punct::Percent,
            b'^' => Punct::Caret,
            b'~' => Punct::Tilde,
            b'@' => Punct::At,
            b'-' => two(self, b'>', Punct::Arrow, Punct::Minus),
            b'=' => two(self, b'=', Punct::EqEq, Punct::Assign),
            b'!' => two(self, b'=', Punct::NotEq, Punct::Bang),
            b'&' => two(self, b'&', Punct::AndAnd, Punct::Amp),
            b'|' => two(self, b'|', Punct::OrOr, Punct::Pipe),
            b'<' if self.peek() == Some(b'=') => two(self, b'=', Punct::Le, Punct::Lt),
            b'<' => two(self, b'<', Punct::Shl, Punct::Lt),
            b'>' if self.peek() == Some(b'=') => two(self, b'=', Punct::Ge, Punct::Gt),
            b'>' => two(self, b'>', Punct::Shr, Punct::Gt),
            other => {
                return Err(CompileError::new(
                    line,
                    format!("unexpected character {:?}", other as char),
                ))
            }
        };
        Ok(TokenKind::Punct(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src)
            .unwrap()
            .tokens
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn basic_tokens() {
        let lexed = lex("fn main() -> int { return 42; }").unwrap();
        let k: Vec<TokenKind> = lexed.tokens.iter().map(|t| t.kind).collect();
        assert_eq!(k[0], TokenKind::Keyword(Keyword::Fn));
        let TokenKind::Ident(main) = k[1] else {
            panic!("expected an identifier, got {:?}", k[1]);
        };
        assert_eq!(lexed.names.name(main), "main");
        assert_eq!(k[2], TokenKind::Punct(Punct::LParen));
        assert_eq!(k[4], TokenKind::Punct(Punct::Arrow));
        assert_eq!(k[5], TokenKind::Keyword(Keyword::Int));
        assert!(k.contains(&TokenKind::Int(42)));
        assert_eq!(*k.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn repeated_names_share_a_symbol() {
        let lexed = lex("x y x whilex").unwrap();
        let k: Vec<TokenKind> = lexed.tokens.iter().map(|t| t.kind).collect();
        assert_eq!(k[0], k[2]);
        assert_ne!(k[0], k[1]);
        let TokenKind::Ident(s) = k[3] else {
            panic!("a keyword prefix is still an identifier: {:?}", k[3]);
        };
        assert_eq!(lexed.names.name(s), "whilex");
    }

    #[test]
    fn numeric_literals() {
        assert_eq!(kinds("123")[0], TokenKind::Int(123));
        assert_eq!(kinds("0x1F")[0], TokenKind::Int(31));
        assert_eq!(kinds("1.5")[0], TokenKind::Float(1.5));
        assert_eq!(kinds("2e3")[0], TokenKind::Float(2000.0));
        assert_eq!(kinds("1.5e-2")[0], TokenKind::Float(0.015));
    }

    #[test]
    fn dot_requires_digit() {
        // `1.foo` is not a float; we don't have member access so the dot is
        // an error, but `1 . 2` style tokens must not merge.
        assert!(lex("1.x").is_err());
    }

    #[test]
    fn char_and_string_literals() {
        assert_eq!(kinds("'a'")[0], TokenKind::Int(97));
        assert_eq!(kinds("'\\n'")[0], TokenKind::Int(10));
        assert_eq!(kinds("'\\0'")[0], TokenKind::Int(0));
        let lexed = lex("\"hi\\tthere\" \"again\"").unwrap();
        assert_eq!(lexed.tokens[0].kind, TokenKind::Str(0));
        assert_eq!(lexed.tokens[1].kind, TokenKind::Str(1));
        assert_eq!(lexed.strings, ["hi\tthere", "again"]);
    }

    #[test]
    fn comments_are_skipped_and_lines_tracked() {
        let lexed = lex("// one\n/* two\nthree */ x\n'\n' y").unwrap();
        let TokenKind::Ident(x) = lexed.tokens[0].kind else {
            panic!("expected `x`");
        };
        assert_eq!(lexed.names.name(x), "x");
        assert_eq!(lexed.tokens[0].line, 3);
        // A raw newline inside a char literal still counts as a line.
        assert_eq!(lexed.tokens[1].kind, TokenKind::Int(10));
        assert_eq!(lexed.tokens[2].line, 5);
    }

    #[test]
    fn compound_operators() {
        let k = kinds("<= >= == != && || << >> -> < >");
        use Punct::*;
        let expect = [Le, Ge, EqEq, NotEq, AndAnd, OrOr, Shl, Shr, Arrow, Lt, Gt];
        for (i, p) in expect.iter().enumerate() {
            assert_eq!(k[i], TokenKind::Punct(*p), "at {i}");
        }
    }

    #[test]
    fn errors_carry_line() {
        let err = lex("x\n$").err().unwrap();
        assert_eq!(err.line, 2);
        assert!(lex("\"abc").is_err());
        assert!(lex("/* nope").is_err());
        assert!(lex("''").is_err());
        assert!(lex("'ab'").is_err());
        assert!(lex("99999999999999999999").is_err());
    }
}
