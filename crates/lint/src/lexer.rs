//! A lightweight Rust lexer for lint purposes.
//!
//! The workspace vendors no `syn`, so — like the trace crate's
//! hand-rolled JSON — the lexer is hand-rolled: it strips comments and
//! every string/char literal form (plain, raw, byte, raw-byte), tracks
//! line numbers, and emits a flat token stream of identifiers, numbers
//! and single-character punctuation. That is exactly enough signal for
//! the rule catalog, which matches short token sequences rather than a
//! full syntax tree.
//!
//! Two side channels ride along with the tokens:
//!
//! * **Allow pragmas.** A plain `//` comment whose trimmed text starts
//!   with `bgl-lint:` must parse as
//!   `bgl-lint: allow(<rule>, reason = "<why>")`; the reason is
//!   mandatory. Anything that starts the marker but fails to parse is
//!   reported as a malformed pragma rather than silently ignored.
//! * **`#[cfg(test)]` regions.** Token ranges covered by a
//!   `#[cfg(test)]` item (its attribute through the end of its body)
//!   are marked so the determinism/robustness rules can skip test code.

/// What a token is; rules mostly care about identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (integer or float, suffix included).
    Num,
    /// One character of punctuation (`.`, `:`, `!`, brackets, …).
    Punct,
}

/// One token with its source line (1-based).
#[derive(Debug, Clone, Copy)]
pub struct Tok<'a> {
    /// Token class.
    pub kind: TokKind,
    /// 1-based line the token starts on.
    pub line: u32,
    /// The token's text, borrowed from the source.
    pub text: &'a str,
}

/// A parsed `bgl-lint: allow(rule, reason = "...")` pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// 1-based line the pragma comment sits on.
    pub line: u32,
    /// The rule id being allowed (e.g. `r1`).
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
}

/// A comment that starts the `bgl-lint:` marker but does not parse as
/// a valid allow pragma (missing reason, bad syntax, unknown shape).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadPragma {
    /// 1-based line of the offending comment.
    pub line: u32,
    /// What was wrong, in plain words.
    pub what: String,
}

/// A lexed source file: tokens plus the pragma side channels.
#[derive(Debug, Default)]
pub struct LexedFile<'a> {
    /// The token stream, comments and literals stripped.
    pub toks: Vec<Tok<'a>>,
    /// Well-formed allow pragmas.
    pub allows: Vec<Allow>,
    /// Malformed pragma attempts.
    pub bad_pragmas: Vec<BadPragma>,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_cont(b: u8) -> bool {
    is_ident_start(b) || b.is_ascii_digit()
}

/// Lex `src` into tokens and pragma side channels.
pub fn lex(src: &str) -> LexedFile<'_> {
    let b = src.as_bytes();
    let mut out = LexedFile::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                let mut j = start;
                while j < b.len() && b[j] != b'\n' {
                    j += 1;
                }
                scan_pragma(&src[start..j], line, &mut out);
                i = j;
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                i = skip_block_comment(b, i, &mut line);
            }
            b'"' => {
                i = skip_string(b, i, &mut line);
            }
            b'\'' => {
                i = skip_char_or_lifetime(b, i);
            }
            b'r' | b'b' if raw_prefix_len(b, i).is_some() => {
                // Safe: raw_prefix_len only matches when a quote follows.
                let (plen, hashes, byte_char) = raw_prefix_len(b, i).unwrap_or((1, 0, false));
                if byte_char {
                    i = skip_char_body(b, i + plen);
                } else if hashes == usize::MAX {
                    i = skip_string(b, i + plen - 1, &mut line);
                } else {
                    i = skip_raw_string(b, i + plen, hashes, &mut line);
                }
            }
            c if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_cont(b[i]) {
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    line,
                    text: &src[start..i],
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i = skip_number(b, i);
                out.toks.push(Tok {
                    kind: TokKind::Num,
                    line,
                    text: &src[start..i],
                });
            }
            _ => {
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    line,
                    text: &src[i..i + 1],
                });
                i += 1;
            }
        }
    }
    out
}

/// If position `i` starts a raw/byte literal prefix, return
/// `(prefix_len, hash_count, is_byte_char)`. `hash_count == usize::MAX`
/// encodes a plain (non-raw) byte string `b"…"`, which lexes like a
/// normal string.
fn raw_prefix_len(b: &[u8], i: usize) -> Option<(usize, usize, bool)> {
    let rest = &b[i..];
    let (mut j, raw) = match rest {
        [b'r', ..] => (1, true),
        [b'b', b'r', ..] => (2, true),
        [b'b', b'\'', ..] => return Some((2, 0, true)),
        [b'b', b'"', ..] => return Some((2, usize::MAX, false)),
        _ => return None,
    };
    if !raw {
        return None;
    }
    let mut hashes = 0usize;
    while rest.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if rest.get(j) == Some(&b'"') {
        Some((j + 1, hashes, false))
    } else {
        None
    }
}

fn skip_block_comment(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 2;
    let mut depth = 1usize;
    while i < b.len() && depth > 0 {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
        } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
            depth += 1;
            i += 2;
        } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
            depth -= 1;
            i += 2;
        } else {
            i += 1;
        }
    }
    i
}

/// `i` points at the opening `"`.
fn skip_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// `i` points just past `r##…"`; scan to `"##…` with `hashes` hashes.
fn skip_raw_string(b: &[u8], mut i: usize, hashes: usize, line: &mut u32) -> usize {
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if b[i] == b'"' {
            let mut k = 0usize;
            while k < hashes && b.get(i + 1 + k) == Some(&b'#') {
                k += 1;
            }
            if k == hashes {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    i
}

/// `i` points at the opening `'` of a char literal body.
fn skip_char_body(b: &[u8], mut i: usize) -> usize {
    // i is just past the quote already consumed by the caller's prefix.
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// `i` points at a `'` that is either a char literal or a lifetime.
fn skip_char_or_lifetime(b: &[u8], i: usize) -> usize {
    match b.get(i + 1) {
        Some(&b'\\') => skip_char_body(b, i + 1),
        Some(&c) if is_ident_start(c) => {
            let mut j = i + 2;
            while j < b.len() && is_ident_cont(b[j]) {
                j += 1;
            }
            if b.get(j) == Some(&b'\'') {
                j + 1 // 'a' — a char literal
            } else {
                j // 'a — a lifetime; no closing quote
            }
        }
        Some(_) => skip_char_body(b, i + 1),
        None => i + 1,
    }
}

fn skip_number(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
        i += 1;
    }
    // Fraction: `.` followed by a digit (so `1.max(2)` keeps its dot).
    if i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit() {
        i += 1;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
    }
    i
}

/// Parse a line comment's text as a pragma if it carries the marker.
fn scan_pragma(comment: &str, line: u32, out: &mut LexedFile<'_>) {
    let t = comment.trim();
    let Some(rest) = t.strip_prefix("bgl-lint:") else {
        return;
    };
    match parse_allow(rest.trim()) {
        Ok((rule, reason)) => out.allows.push(Allow { line, rule, reason }),
        Err(what) => out.bad_pragmas.push(BadPragma { line, what }),
    }
}

/// Parse `allow(<rule>, reason = "<text>")`.
fn parse_allow(s: &str) -> Result<(String, String), String> {
    let body = s
        .strip_prefix("allow(")
        .ok_or_else(|| "expected `allow(<rule>, reason = \"...\")`".to_string())?;
    let body = body
        .strip_suffix(')')
        .ok_or_else(|| "missing closing `)`".to_string())?;
    let (rule, rest) = body
        .split_once(',')
        .ok_or_else(|| "missing `, reason = \"...\"` — a reason is mandatory".to_string())?;
    let rule = rule.trim();
    if rule.is_empty() || !rule.bytes().all(|c| c.is_ascii_alphanumeric() || c == b'-') {
        return Err(format!("bad rule id {rule:?}"));
    }
    let rest = rest.trim();
    let reason = rest
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('='))
        .map(str::trim_start)
        .ok_or_else(|| "expected `reason = \"...\"`".to_string())?;
    let reason = reason
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| "reason must be a double-quoted string".to_string())?;
    if reason.trim().is_empty() {
        return Err("reason must not be empty".to_string());
    }
    Ok((rule.to_string(), reason.trim().to_string()))
}

/// Mark which tokens sit inside a `#[cfg(test)]` item (attribute
/// through end of body). Returns one flag per token.
pub fn test_region_flags(toks: &[Tok<'_>]) -> Vec<bool> {
    let mut flags = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if let Some(end) = cfg_test_item_end(toks, i) {
            for f in flags.iter_mut().take(end).skip(i) {
                *f = true;
            }
            i = end;
        } else {
            i += 1;
        }
    }
    flags
}

/// If token `i` opens a `#[cfg(test)]` (or `#[cfg(any/all(.. test ..))]`)
/// attribute, return the token index one past the end of the item it
/// decorates.
fn cfg_test_item_end(toks: &[Tok<'_>], i: usize) -> Option<usize> {
    if !(tok_is(toks, i, "#") && tok_is(toks, i + 1, "[") && tok_is(toks, i + 2, "cfg")) {
        return None;
    }
    // Find the attribute's closing `]`, checking for a `test` ident
    // anywhere inside the cfg predicate.
    let mut j = i + 3;
    let mut depth = 0usize;
    let mut saw_test = false;
    while j < toks.len() {
        match toks[j].text {
            "[" | "(" => depth += 1,
            ")" => depth = depth.saturating_sub(1),
            "]" if depth == 0 => break,
            "]" => depth -= 1,
            "test" => saw_test = true,
            _ => {}
        }
        j += 1;
    }
    if !saw_test || j >= toks.len() {
        return None;
    }
    j += 1; // past `]`
            // Skip any further attributes on the same item.
    while tok_is(toks, j, "#") && tok_is(toks, j + 1, "[") {
        let mut depth = 0usize;
        j += 2;
        while j < toks.len() {
            match toks[j].text {
                "[" | "(" => depth += 1,
                ")" => depth = depth.saturating_sub(1),
                "]" if depth == 0 => break,
                "]" => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        j += 1;
    }
    // The item body: everything to the matching `}` of its first brace,
    // or to a `;` that arrives before any brace (e.g. `use`, `mod x;`).
    let mut depth = 0usize;
    while j < toks.len() {
        match toks[j].text {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(j + 1);
                }
            }
            ";" if depth == 0 => return Some(j + 1),
            _ => {}
        }
        j += 1;
    }
    Some(toks.len())
}

fn tok_is(toks: &[Tok<'_>], i: usize, text: &str) -> bool {
    toks.get(i).map(|t| t.text) == Some(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<&str> {
        lex(src)
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strips_comments_and_strings() {
        let src = r####"
            // HashMap in a comment
            /* HashMap in /* a nested */ block */
            let a = "HashMap in a string";
            let b = r#"raw HashMap "quoted" here"#;
            let c = b"byte HashMap";
            let d = 'x';
            let e: &'static str = "s";
            fn real_hash(m: &HashMap<u32, u32>) {}
        "####;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|t| **t == "HashMap").count(), 1);
        assert!(ids.contains(&"real_hash"));
        assert!(!ids.contains(&"static"), "lifetime idents are skipped");
    }

    #[test]
    fn tracks_lines() {
        let src = "let a = 1;\nlet b = 2;\n\nlet c = 3;";
        let lexed = lex(src);
        let line_of = |name: &str| {
            lexed
                .toks
                .iter()
                .find(|t| t.text == name)
                .map(|t| t.line)
                .unwrap_or(0)
        };
        assert_eq!(line_of("a"), 1);
        assert_eq!(line_of("b"), 2);
        assert_eq!(line_of("c"), 4);
    }

    #[test]
    fn numbers_lex_as_one_token() {
        let toks = lex("let x = 1.5e-3f64 + 0xff_u32; y.0.max(2)");
        let nums: Vec<&str> = toks
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text)
            .collect();
        assert!(nums.contains(&"1.5e"), "{nums:?}"); // `-3f64` splits; fine for lint purposes
        assert!(nums.contains(&"0xff_u32"), "{nums:?}");
    }

    #[test]
    fn parses_allow_pragmas() {
        let src = "let x = m.get(&k); // bgl-lint: allow(d1, reason = \"lookup only\")\n";
        let lexed = lex(src);
        assert_eq!(
            lexed.allows,
            vec![Allow {
                line: 1,
                rule: "d1".into(),
                reason: "lookup only".into()
            }]
        );
        assert!(lexed.bad_pragmas.is_empty());
    }

    #[test]
    fn rejects_malformed_pragmas() {
        for bad in [
            "// bgl-lint: allow(d1)",
            "// bgl-lint: allow(d1, reason = \"\")",
            "// bgl-lint: allow(d1, reason = unquoted)",
            "// bgl-lint: disable(d1)",
        ] {
            let lexed = lex(bad);
            assert!(lexed.allows.is_empty(), "{bad}");
            assert_eq!(lexed.bad_pragmas.len(), 1, "{bad}");
        }
        // Doc comments and prose never parse as pragmas.
        assert!(lex("//! the bgl-lint binary is documented here")
            .bad_pragmas
            .is_empty());
        assert!(lex("// run bgl-lint --check in CI").bad_pragmas.is_empty());
    }

    #[test]
    fn cfg_test_regions_cover_mod_bodies() {
        let src = "
fn live() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn helper() { y.unwrap(); }
}
fn live_too() { z.unwrap(); }
";
        let lexed = lex(src);
        let flags = test_region_flags(&lexed.toks);
        let unwraps: Vec<bool> = lexed
            .toks
            .iter()
            .zip(&flags)
            .filter(|(t, _)| t.text == "unwrap")
            .map(|(_, f)| *f)
            .collect();
        assert_eq!(unwraps, vec![false, true, false]);
    }

    #[test]
    fn cfg_test_handles_use_and_extra_attrs() {
        let src = "
#[cfg(test)]
use std::collections::HashMap;
#[cfg(test)]
#[derive(Debug)]
struct T { m: u32 }
fn live() {}
";
        let lexed = lex(src);
        let flags = test_region_flags(&lexed.toks);
        for (t, f) in lexed.toks.iter().zip(&flags) {
            if t.text == "HashMap" || t.text == "struct" {
                assert!(*f, "{} should be in a test region", t.text);
            }
            if t.text == "live" {
                assert!(!*f);
            }
        }
    }
}
