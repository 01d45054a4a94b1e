//! Deterministic source-edit scripts for skew experiments.
//!
//! The chaos battery and the proptest suite need *reproducible* program
//! edits expressed over mflang source text: rename a function, delete a
//! dead one, append a new one, tweak one expression. These are pure text
//! transforms — no parser dependency — so they stay cheap enough to run
//! thousands of times inside fuzz loops.

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The length of the string literal, char literal or comment starting at
/// byte `i`, if one does; an unterminated one runs to the end of the
/// source. Comments are recognized first, so a quote inside one opens
/// nothing.
fn opaque_len(bytes: &[u8], i: usize) -> Option<usize> {
    let rest = &bytes[i..];
    Some(match rest {
        [b'/', b'/', ..] => rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len()),
        [b'/', b'*', tail @ ..] => tail
            .windows(2)
            .position(|w| w == b"*/")
            .map_or(rest.len(), |at| at + 4),
        [quote @ (b'"' | b'\''), ..] => {
            let mut j = 1;
            while j < rest.len() && rest[j] != *quote {
                j += if rest[j] == b'\\' { 2 } else { 1 };
            }
            (j + 1).min(rest.len())
        }
        _ => return None,
    })
}

/// Replace every whole-word occurrence of identifier `from` with `to`
/// outside string literals, char literals and comments. Renames the
/// definition *and* every call site, which is exactly the "rename-only"
/// edit the remapper must fully salvage; a literal that happens to spell
/// the name is data and keeps its bytes.
pub fn rename_fn(source: &str, from: &str, to: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = String::with_capacity(source.len());
    let mut i = 0;
    while i < bytes.len() {
        if let Some(len) = opaque_len(bytes, i) {
            out.push_str(&source[i..i + len]);
            i += len;
            continue;
        }
        if source[i..].starts_with(from) {
            let before_ok = i == 0 || !is_ident(bytes[i - 1]);
            let end = i + from.len();
            let after_ok = end == bytes.len() || !is_ident(bytes[end]);
            if before_ok && after_ok {
                out.push_str(to);
                i = end;
                continue;
            }
        }
        // Advance one full UTF-8 scalar, not one byte.
        let ch = source[i..].chars().next().unwrap();
        out.push(ch);
        i += ch.len_utf8();
    }
    out
}

/// Delete the entire definition of `fn name(...) { ... }` by brace
/// matching. Returns `None` if no such definition exists. Call sites are
/// left untouched, so this is only a *valid* program edit when the
/// function is dead code.
pub fn delete_fn(source: &str, name: &str) -> Option<String> {
    let bytes = source.as_bytes();
    let needle = format!("fn {name}");
    let mut search = 0;
    let start = loop {
        let at = source[search..].find(&needle)? + search;
        let end = at + needle.len();
        // `fn name` must be followed by `(` (possibly after spaces) and
        // preceded by a non-identifier boundary.
        let before_ok = at == 0 || !is_ident(bytes[at.saturating_sub(1)]);
        let mut j = end;
        while j < bytes.len() && bytes[j] == b' ' {
            j += 1;
        }
        if before_ok && j < bytes.len() && bytes[j] == b'(' {
            break at;
        }
        search = end;
    };
    let open = source[start..].find('{')? + start;
    let mut depth = 0usize;
    let mut close = None;
    for (off, b) in bytes[open..].iter().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    close = Some(open + off);
                    break;
                }
            }
            _ => {}
        }
    }
    let close = close?;
    let mut out = String::with_capacity(source.len());
    out.push_str(source[..start].trim_end_matches(' '));
    let rest = &source[close + 1..];
    out.push_str(rest.strip_prefix('\n').unwrap_or(rest));
    Some(out)
}

/// Append a new top-level definition to the end of the source.
pub fn append_fn(source: &str, text: &str) -> String {
    let mut out = String::with_capacity(source.len() + text.len() + 2);
    out.push_str(source);
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out.push_str(text);
    out.push('\n');
    out
}

/// Replace the first occurrence of `from` with `to`; `None` if absent.
pub fn replace_once(source: &str, from: &str, to: &str) -> Option<String> {
    let at = source.find(from)?;
    let mut out = String::with_capacity(source.len());
    out.push_str(&source[..at]);
    out.push_str(to);
    out.push_str(&source[at + from.len()..]);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rename_respects_word_boundaries() {
        let src = "fn f(x: int) -> int { return frob(x); } fn frob(y: int) -> int { return y; }";
        let out = rename_fn(src, "f", "g");
        assert!(out.contains("fn g(x: int)"));
        assert!(out.contains("return frob(x)"), "frob must not become grob");
        assert!(out.contains("fn frob(y: int)"));
    }

    #[test]
    fn rename_skips_literals_and_comments() {
        let src =
            "// f's helper: calls f\nfn f(c: int) -> int { /* f \"in\" f */ return c + 'f'; }\n\
                   fn main() { emit(f('\\'')); emit(f(\"f\\\"f\"[0])); }";
        let want =
            "// f's helper: calls f\nfn g(c: int) -> int { /* f \"in\" f */ return c + 'f'; }\n\
                    fn main() { emit(g('\\'')); emit(g(\"f\\\"f\"[0])); }";
        assert_eq!(rename_fn(src, "f", "g"), want);
    }

    /// li's builtin table is a string naming `cons`, `car` and `cdr`:
    /// renaming the function `cons` must leave it, and the program's
    /// behaviour, alone — so every branch site survives the remap.
    #[test]
    fn renaming_lis_cons_keeps_its_builtin_table() {
        let li = mfwork::suite()
            .into_iter()
            .find(|w| w.name == "li")
            .expect("li is in the suite")
            .source;
        let at = li.find("\"+ - * /").expect("li's builtin table");
        let table = &li[at..at + li[at + 1..].find('"').unwrap() + 2];
        assert!(table.contains(" cons car cdr "), "{table}");
        let renamed = rename_fn(&li, "cons", "kons");
        assert!(renamed.contains(table), "the builtin table changed");
        assert!(renamed.contains("fn kons(") && !renamed.contains("fn cons("));

        let old_fps = crate::site_fingerprints(&mflang::compile(&li).unwrap());
        let new_fps = crate::site_fingerprints(&mflang::compile(&renamed).unwrap());
        let counts: Vec<_> = old_fps
            .keys()
            .enumerate()
            .map(|(i, &id)| (id, 10 + i as u64, i as u64))
            .collect();
        let report = crate::remap_counts(&counts, &old_fps, &new_fps).report;
        assert_eq!(report.matched + report.salvaged, counts.len(), "{report}");
        assert_eq!((report.orphaned, report.degraded), (0, 0), "{report}");
    }

    #[test]
    fn delete_fn_removes_exactly_one_definition() {
        let src = "fn dead(x: int) -> int {\n  if (x > 0) { return 1; }\n  return 0;\n}\nfn main(n: int) { emit(n); }\n";
        let out = delete_fn(src, "dead").expect("dead exists");
        assert!(!out.contains("fn dead"));
        assert!(out.contains("fn main"));
        assert!(mflang::compile(&out).is_ok(), "result still compiles");
    }

    #[test]
    fn delete_fn_missing_is_none() {
        assert!(delete_fn("fn main(n: int) { emit(n); }", "ghost").is_none());
    }

    #[test]
    fn append_and_replace_round_trip() {
        let src = "fn main(n: int) { emit(n); }";
        let grown = append_fn(src, "fn extra(k: int) -> int { return k; }");
        assert!(grown.contains("fn extra"));
        assert!(mflang::compile(&grown).is_ok());
        let swapped = replace_once(&grown, "emit(n)", "emit(n + 1)").unwrap();
        assert!(swapped.contains("emit(n + 1)"));
        assert!(replace_once(src, "absent", "x").is_none());
    }
}
