//! The one JSON writer every report in the workspace goes through.
//!
//! A report builds a [`Json`] value and calls [`Json::render`]. The
//! renderer has a single dialect and a single layout, so two reports can
//! never disagree on either:
//!
//! * **Escaping:** `"`, `\`, newline, carriage return and tab get short
//!   escapes; every other control character becomes `\u00XX`; everything
//!   else, non-ASCII included, passes through.
//! * **Numbers:** integers print as-is. A float prints in shortest
//!   round-trip form ([`Json::Float`]) or with a fixed number of decimals
//!   ([`Json::Fixed`]); a non-finite float prints `null`.
//! * **Layout:** the top-level value is written one member per line, and
//!   so is any container that directly holds an array of objects or
//!   arrays (such an array included). Everything else is written on one
//!   line, every element of such an array too.
//!
//! ```
//! use mfreport::json::Json;
//!
//! let rows = Json::array([Json::object([("x", 1u64.into())])]);
//! let doc = Json::object([("name", "tomcatv".into()), ("rows", rows)]);
//! assert_eq!(
//!     doc.render(),
//!     "{\n  \"name\": \"tomcatv\",\n  \"rows\": [\n    {\"x\": 1}\n  ]\n}\n"
//! );
//! ```

/// A JSON value whose members keep their insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An integer, printed exactly.
    Int(i128),
    /// A float in shortest round-trip form (`{:?}`).
    Float(f64),
    /// A float with the given number of decimals.
    Fixed(f64, usize),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, members in order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object with `members` in the given order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of `items`.
    pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }

    /// Appends a member to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn push(&mut self, key: impl Into<String>, value: Json) {
        match self {
            Json::Object(members) => members.push((key.into(), value)),
            _ => panic!("Json::push on a non-object"),
        }
    }

    /// The value as a document: laid out, with a closing newline.
    pub fn render(&self) -> String {
        self.layout(Some(0)) + "\n"
    }

    /// True for an array that holds an object or an array.
    fn is_table(&self) -> bool {
        matches!(self, Json::Array(items)
            if items.iter().any(|v| matches!(v, Json::Array(_) | Json::Object(_))))
    }

    /// True for a container written one member per line below the top.
    fn spreads(&self) -> bool {
        match self {
            Json::Object(members) => members.iter().any(|(_, v)| v.is_table()),
            _ => self.is_table(),
        }
    }

    /// The value as text, one member per line at `indent` when `Some`.
    fn layout(&self, indent: Option<usize>) -> String {
        let (open, close, parts): (_, _, Vec<String>) = match self {
            Json::Null => return "null".into(),
            Json::Bool(b) => return b.to_string(),
            Json::Int(i) => return i.to_string(),
            Json::Float(v) if v.is_finite() => return format!("{v:?}"),
            Json::Fixed(v, d) if v.is_finite() => return format!("{v:.d$}"),
            Json::Float(_) | Json::Fixed(..) => return "null".into(),
            Json::Str(s) => return quote(s),
            Json::Array(items) => ('[', ']', items.iter().map(|v| v.layout(None)).collect()),
            Json::Object(members) => {
                let child = |v: &Json| v.layout(indent.filter(|_| v.spreads()).map(|n| n + 2));
                let parts = members
                    .iter()
                    .map(|(k, v)| format!("{}: {}", quote(k), child(v)));
                ('{', '}', parts.collect())
            }
        };
        match indent {
            Some(n) if !parts.is_empty() => {
                let pad = " ".repeat(n + 2);
                let body = parts.join(&format!(",\n{pad}"));
                format!("{open}\n{pad}{body}\n{}{close}", &pad[2..])
            }
            _ => format!("{open}{}{close}", parts.join(", ")),
        }
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(i: $t) -> Json {
                Json::Int(i as i128)
            }
        }
    )*};
}

from_int!(u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_characters() {
        assert_eq!(quote("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(quote("\r\t\u{1}\u{1f}"), r#""\r\t\u0001\u001f""#);
        assert_eq!(quote("é—✓ /"), "\"é—✓ /\"");
    }

    #[test]
    fn numbers_keep_their_form_and_non_finite_floats_are_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Float(v).layout(None), "null");
            assert_eq!(Json::Fixed(v, 3).layout(None), "null");
        }
        assert_eq!(Json::Fixed(2.0, 4).layout(None), "2.0000");
        assert_eq!(Json::Fixed(91327847.4, 0).layout(None), "91327847");
        assert_eq!(Json::Fixed(0.1234567, 6).layout(None), "0.123457");
        assert_eq!(Json::Float(1.0).layout(None), "1.0");
        assert_eq!(Json::from(u64::MAX).layout(None), "18446744073709551615");
        assert_eq!(Json::from(None::<u64>).layout(None), "null");
    }

    #[test]
    fn empty_containers_stay_on_one_line() {
        let doc = Json::object([("runs", Json::Array(vec![])), ("d", Json::Object(vec![]))]);
        assert_eq!(doc.render(), "{\n  \"runs\": [],\n  \"d\": {}\n}\n");
        assert_eq!(Json::Object(vec![]).render(), "{}\n");
    }

    #[test]
    fn only_tables_and_their_holders_spread() {
        let row = |i: u64| Json::object([("i", i.into()), ("tags", Json::array(["x"]))]);
        let table = Json::object([
            ("cols", Json::array(["A", "B"])),
            ("rows", Json::array([Json::array([1u64, 2])])),
        ]);
        let doc = Json::object([
            (
                "flat",
                Json::object([("a", true.into()), ("b", Json::Null)]),
            ),
            ("table", table),
            (
                "nested",
                Json::array([Json::object([("rows", Json::array([row(1), row(2)]))])]),
            ),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"flat\": {\"a\": true, \"b\": null},\n  \"table\": {\n    \
             \"cols\": [\"A\", \"B\"],\n    \"rows\": [\n      [1, 2]\n    ]\n  },\n  \
             \"nested\": [\n    {\"rows\": [{\"i\": 1, \"tags\": [\"x\"]}, \
             {\"i\": 2, \"tags\": [\"x\"]}]}\n  ]\n}\n"
        );
    }
}
