//! The per-compile name interner.
//!
//! Every identifier in a source becomes a [`Sym`], a dense index into one
//! [`Interner`] that borrows its names from the source text. An interner
//! lives for a single compile: the lexer fills it, the parser reads it
//! only to print a token in a diagnostic, and lowering sizes its
//! per-symbol tables by it. Nothing about it outlives the call, so a
//! source that invents new names (an edit appending a function, or
//! renaming one) costs one table entry per distinct name and nothing
//! after the compile returns.
//!
//! The first symbols are fixed: the keywords, in [`Keyword`] order, then
//! the builtins that are not also keywords. The lexer turns a keyword's
//! symbol into its own token, and lowering recognizes a builtin by its
//! symbol alone.
//!
//! [`Keyword`]: crate::token::Keyword

/// A name interned in one compile's [`Interner`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Sym(u32);

impl Sym {
    /// The fixed symbol of `SEEDED[i]`.
    pub(crate) const fn seeded(i: usize) -> Sym {
        Sym(i as u32)
    }

    /// The symbol's dense index, for per-symbol tables.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// The names every interner starts with, at symbols `0..SEEDED.len()`:
/// the sixteen keywords in [`Keyword`](crate::token::Keyword) order (`int`
/// and `float` last, since they are also the conversion builtins), then
/// the other builtins in [`Builtin`](crate::lower::Builtin) order.
pub(crate) const SEEDED: [&str; 31] = [
    "fn",
    "global",
    "var",
    "if",
    "else",
    "while",
    "do",
    "for",
    "switch",
    "case",
    "default",
    "break",
    "continue",
    "return",
    "int",
    "float",
    "len",
    "new_int",
    "new_float",
    "emit",
    "sqrt",
    "sin",
    "cos",
    "exp",
    "log",
    "floor",
    "iabs",
    "fabs",
    "fmin",
    "fmax",
    "select",
];

/// An empty slot in [`Interner::slots`].
const EMPTY: u32 = u32::MAX;

/// Maps each distinct name of one source to a [`Sym`] and back. The names
/// borrow from the source (or are the static [`SEEDED`] ones), so interning
/// allocates nothing per name; lookups go through an open-addressing table
/// of symbol indices.
pub(crate) struct Interner<'s> {
    names: Vec<&'s str>,
    /// A power-of-two table of indices into `names`, at most half full.
    slots: Vec<u32>,
}

impl<'s> Interner<'s> {
    /// An interner holding the [`SEEDED`] names at their fixed symbols.
    pub(crate) fn new() -> Self {
        let mut interner = Interner {
            names: Vec::with_capacity(128),
            slots: vec![EMPTY; 256],
        };
        for name in SEEDED {
            interner.intern(name);
        }
        interner
    }

    /// The symbol for `name`, interning it if this is its first use.
    pub(crate) fn intern(&mut self, name: &'s str) -> Sym {
        let mask = self.slots.len() - 1;
        let mut at = hash(name) & mask;
        loop {
            match self.slots[at] {
                EMPTY => break,
                i if self.names[i as usize] == name => return Sym(i),
                _ => at = (at + 1) & mask,
            }
        }
        let sym = Sym(self.names.len() as u32);
        self.names.push(name);
        self.slots[at] = sym.0;
        if self.names.len() * 2 > self.slots.len() {
            self.grow();
        }
        sym
    }

    /// The symbol for `name` if the source used it.
    pub(crate) fn get(&self, name: &str) -> Option<Sym> {
        let mask = self.slots.len() - 1;
        let mut at = hash(name) & mask;
        loop {
            match self.slots[at] {
                EMPTY => return None,
                i if self.names[i as usize] == name => return Some(Sym(i)),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// The text of `sym`.
    pub(crate) fn name(&self, sym: Sym) -> &'s str {
        self.names[sym.index()]
    }

    /// How many symbols there are: one past the largest index.
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    fn grow(&mut self) {
        let mask = self.slots.len() * 2 - 1;
        let mut slots = vec![EMPTY; mask + 1];
        for (i, name) in self.names.iter().enumerate() {
            let mut at = hash(name) & mask;
            while slots[at] != EMPTY {
                at = (at + 1) & mask;
            }
            slots[at] = i as u32;
        }
        self.slots = slots;
    }
}

/// A multiply-rotate hash over the name's bytes (the Fx scheme). Names
/// are short ASCII identifiers, so a byte at a time is enough.
fn hash(name: &str) -> usize {
    let mut h: u64 = 0;
    for &b in name.as_bytes() {
        h = (h.rotate_left(5) ^ u64::from(b)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
    (h >> 32) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_names_hold_their_fixed_symbols() {
        let names = Interner::new();
        assert_eq!(names.len(), SEEDED.len());
        for (i, name) in SEEDED.iter().enumerate() {
            assert_eq!(names.get(name), Some(Sym(i as u32)));
            assert_eq!(names.name(Sym(i as u32)), *name);
        }
    }

    #[test]
    fn interning_is_idempotent_and_survives_growth() {
        let source: Vec<String> = (0..1000).map(|i| format!("name_{i}")).collect();
        let mut names = Interner::new();
        let syms: Vec<Sym> = source.iter().map(|s| names.intern(s)).collect();
        assert_eq!(names.len(), SEEDED.len() + source.len());
        for (s, sym) in source.iter().zip(&syms) {
            assert_eq!(names.intern(s), *sym);
            assert_eq!(names.get(s), Some(*sym));
            assert_eq!(names.name(*sym), s);
        }
        assert_eq!(names.get("absent"), None);
    }
}
