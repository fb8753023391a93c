//! The determinism & robustness rule catalog.
//!
//! Every equivalence claim the reproduction makes — serial ≡ rayon
//! clocks, sim ≡ threaded byte-identity, raw ≡ auto wire seeds,
//! parity-recovery bit-identity — rests on invariants these rules
//! mechanically enforce in non-test code:
//!
//! | id | name | hazard |
//! |----|------|--------|
//! | `d1` | hash-iteration | `std` `HashMap`/`HashSet` iteration order is randomized per process (`RandomState`), so anything exported from one differs run to run. Use `BTreeMap`/`BTreeSet`, sort on export, or (for lookup-only tables) `FxHashMap` with a pragma. |
//! | `d2` | wall-clock | `Instant::now`/`SystemTime`/`thread_rng`/`from_entropy` inject host entropy into library paths; the simulated clock and every seed must flow from explicit inputs. Threaded exchange deadlines carry pragmas. |
//! | `d3` | float-reduce | float `sum`/`reduce`/`fold` over a `par_iter` is non-associative, so the α–β–hop clock would depend on rayon's split points. |
//! | `r1` | no-panic | `unwrap`/`expect`/`panic!` in library crates turns operating conditions into aborts; hot paths thread `CommError` instead. Provably-infallible sites carry pragmas saying why. |
//! | `r2` | narrowing-cast | `.len()`/`.count()` `as` a narrower integer truncates silently once counters outgrow the type. |
//! | `p0` | malformed-pragma | a `bgl-lint:` marker that does not parse as `allow(rule, reason = "...")` — a reason is mandatory. |
//! | `p1` | unused-allow | an allow pragma that suppresses nothing; stale pragmas rot. |
//!
//! Scoping: `d2`, `r1` and `r2` apply to library code only (binaries
//! parse flags and measure wall-clock legitimately); `r1` additionally
//! exempts the `bench` crate, whose panics abort a bad measurement run
//! rather than a serving path. Test code (`#[cfg(test)]` regions,
//! `tests/`, `examples/`) is never linted.

use crate::lexer::{Allow, LexedFile, Tok, TokKind};
use crate::walk::{FileScope, SourceFile};

/// One catalog entry.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Short id used in pragmas and reports (e.g. `r1`).
    pub id: &'static str,
    /// Human-readable name.
    pub name: &'static str,
    /// One-line rationale.
    pub summary: &'static str,
}

/// The shipped rule catalog.
pub const RULES: &[Rule] = &[
    Rule {
        id: "d1",
        name: "hash-iteration",
        summary: "std HashMap/HashSet iteration order is nondeterministic; \
                  use BTreeMap/BTreeSet, sort on export, or FxHashMap for lookup-only tables",
    },
    Rule {
        id: "d2",
        name: "wall-clock",
        summary: "Instant::now/SystemTime/thread_rng/from_entropy inject host \
                  entropy into sim-clock or engine paths",
    },
    Rule {
        id: "d3",
        name: "float-reduce",
        summary: "non-associative float sum/reduce/fold over par_iter makes the \
                  simulated clock depend on rayon split points",
    },
    Rule {
        id: "r1",
        name: "no-panic",
        summary: "unwrap/expect/panic! in library code aborts on operating \
                  conditions; thread CommError or justify with a pragma",
    },
    Rule {
        id: "r2",
        name: "narrowing-cast",
        summary: "len()/count() `as` a narrower integer truncates silently",
    },
    Rule {
        id: "p0",
        name: "malformed-pragma",
        summary: "bgl-lint marker that does not parse as allow(rule, reason = \"...\")",
    },
    Rule {
        id: "p1",
        name: "unused-allow",
        summary: "allow pragma that suppresses no finding",
    },
];

/// Look a rule up by id.
fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`d1` … `p1`).
    pub rule: &'static str,
    /// What was found, in plain words.
    pub message: String,
}

/// An allow pragma that fired, recorded for the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowRecord {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the pragma.
    pub line: u32,
    /// Rule id it suppresses.
    pub rule: String,
    /// The justification it carries.
    pub reason: String,
}

/// Per-file result: surviving findings plus the used-allow records.
#[derive(Debug, Default)]
pub struct FileLint {
    /// Findings that no pragma suppressed.
    pub findings: Vec<Finding>,
    /// Pragmas that suppressed at least one finding.
    pub allows_used: Vec<AllowRecord>,
    /// Number of findings suppressed by pragmas.
    pub suppressed: usize,
}

/// Run every applicable rule over one lexed file.
pub fn check_file(sf: &SourceFile, lexed: &LexedFile<'_>) -> FileLint {
    let test = crate::lexer::test_region_flags(&lexed.toks);
    let mut raw: Vec<Finding> = Vec::new();

    let lib = sf.scope == FileScope::Lib;
    rule_d1(sf, lexed, &test, &mut raw);
    if lib {
        rule_d2(sf, lexed, &test, &mut raw);
    }
    rule_d3(sf, lexed, &test, &mut raw);
    if lib && sf.crate_name != "bench" {
        rule_r1(sf, lexed, &test, &mut raw);
    }
    if lib {
        rule_r2(sf, lexed, &test, &mut raw);
    }

    // Malformed pragmas are findings in their own right and cannot be
    // suppressed — a broken suppression must never suppress itself.
    let mut out = FileLint::default();
    for bp in &lexed.bad_pragmas {
        out.findings.push(Finding {
            file: sf.rel.clone(),
            line: bp.line,
            rule: "p0",
            message: format!("malformed bgl-lint pragma: {}", bp.what),
        });
    }

    // Apply allows: a pragma covers findings of its rule on its own
    // line (trailing comment) or the line directly below (standalone
    // comment line).
    let mut used = vec![false; lexed.allows.len()];
    for f in raw {
        let hit = lexed
            .allows
            .iter()
            .enumerate()
            .find(|(_, a)| a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line));
        match hit {
            Some((idx, _)) => {
                used[idx] = true;
                out.suppressed += 1;
            }
            None => out.findings.push(f),
        }
    }
    for (a, u) in lexed.allows.iter().zip(&used) {
        if *u {
            out.allows_used.push(AllowRecord {
                file: sf.rel.clone(),
                line: a.line,
                rule: a.rule.clone(),
                reason: a.reason.clone(),
            });
        } else {
            out.findings.push(unused_allow(sf, a));
        }
    }
    out.findings
        .sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

fn unused_allow(sf: &SourceFile, a: &Allow) -> Finding {
    let message = match rule_by_id(&a.rule) {
        Some(_) => format!(
            "allow({}) suppresses no finding; remove the stale pragma",
            a.rule
        ),
        None => format!("allow({}) names no rule in the catalog", a.rule),
    };
    Finding {
        file: sf.rel.clone(),
        line: a.line,
        rule: "p1",
        message,
    }
}

fn push(out: &mut Vec<Finding>, sf: &SourceFile, line: u32, rule: &'static str, message: String) {
    // One finding per (line, rule): several offending tokens on a line
    // are one fix and one pragma.
    if out.iter().any(|f| f.line == line && f.rule == rule) {
        return;
    }
    out.push(Finding {
        file: sf.rel.clone(),
        line,
        rule,
        message,
    });
}

fn ident_at<'a>(toks: &'a [Tok<'a>], i: usize) -> Option<&'a str> {
    toks.get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text)
}

fn text_at<'a>(toks: &'a [Tok<'a>], i: usize) -> &'a str {
    toks.get(i).map(|t| t.text).unwrap_or("")
}

/// d1 — std HashMap/HashSet anywhere in non-test code.
fn rule_d1(sf: &SourceFile, lexed: &LexedFile<'_>, test: &[bool], out: &mut Vec<Finding>) {
    for (i, t) in lexed.toks.iter().enumerate() {
        if test[i] || t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "HashMap" || t.text == "HashSet" {
            push(
                out,
                sf,
                t.line,
                "d1",
                format!(
                    "std {} has randomized iteration order; use BTreeMap/BTreeSet, \
                     sort on export, or FxHash* for lookup-only tables",
                    t.text
                ),
            );
        }
    }
}

/// d2 — wall-clock / host entropy in library code.
fn rule_d2(sf: &SourceFile, lexed: &LexedFile<'_>, test: &[bool], out: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if test[i] || t.kind != TokKind::Ident {
            continue;
        }
        let hit = match t.text {
            "Instant" => (text_at(toks, i + 1) == ":"
                && text_at(toks, i + 2) == ":"
                && ident_at(toks, i + 3) == Some("now"))
            .then_some("Instant::now() reads the host clock"),
            "SystemTime" => Some("SystemTime reads the host clock"),
            "thread_rng" => Some("thread_rng() draws host entropy"),
            "from_entropy" => Some("from_entropy() seeds from host entropy"),
            _ => None,
        };
        if let Some(why) = hit {
            push(
                out,
                sf,
                t.line,
                "d2",
                format!("{why}; sim paths must take explicit clocks/seeds"),
            );
        }
    }
}

/// d3 — float sum/reduce/fold inside a parallel-iterator statement.
fn rule_d3(sf: &SourceFile, lexed: &LexedFile<'_>, test: &[bool], out: &mut Vec<Finding>) {
    const PAR_SOURCES: &[&str] = &[
        "par_iter",
        "into_par_iter",
        "par_iter_mut",
        "par_chunks",
        "par_bridge",
    ];
    const REDUCERS: &[&str] = &["sum", "product", "reduce", "fold"];
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if test[i] || t.kind != TokKind::Ident || !PAR_SOURCES.contains(&t.text) {
            continue;
        }
        // Scan the rest of the statement (to the `;` at this nesting
        // depth) for a reducer and float evidence in the same chain.
        let mut depth = 0i64;
        let mut reducer: Option<(&str, u32)> = None;
        let mut float = false;
        for tt in toks.iter().skip(i + 1) {
            match tt.text {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            if tt.kind == TokKind::Ident && REDUCERS.contains(&tt.text) && reducer.is_none() {
                reducer = Some((tt.text, tt.line));
            }
            if (tt.kind == TokKind::Ident && (tt.text == "f64" || tt.text == "f32"))
                || (tt.kind == TokKind::Num && tt.text.contains('.'))
            {
                float = true;
            }
        }
        if let (Some((name, line)), true) = (reducer, float) {
            push(
                out,
                sf,
                line,
                "d3",
                format!(
                    "float `{name}` over a parallel iterator is non-associative; \
                     collect per-item values and reduce sequentially in a fixed order"
                ),
            );
        }
    }
}

/// r1 — `.unwrap()` / `.expect(` / `panic!(` in library code.
fn rule_r1(sf: &SourceFile, lexed: &LexedFile<'_>, test: &[bool], out: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if test[i] || t.kind != TokKind::Ident {
            continue;
        }
        let hit = match t.text {
            "unwrap" | "expect" => i > 0 && text_at(toks, i - 1) == ".",
            "panic" => text_at(toks, i + 1) == "!",
            _ => false,
        };
        if hit {
            push(
                out,
                sf,
                t.line,
                "r1",
                format!(
                    "`{}` in library code aborts on an operating condition; \
                     return a typed error (CommError) or justify why it cannot fire",
                    t.text
                ),
            );
        }
    }
}

/// r2 — `.len()`/`.count()` cast to a narrower integer.
fn rule_r2(sf: &SourceFile, lexed: &LexedFile<'_>, test: &[bool], out: &mut Vec<Finding>) {
    const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if test[i] || t.kind != TokKind::Ident {
            continue;
        }
        if (t.text == "len" || t.text == "count")
            && text_at(toks, i + 1) == "("
            && text_at(toks, i + 2) == ")"
            && ident_at(toks, i + 3) == Some("as")
        {
            if let Some(ty) = ident_at(toks, i + 4) {
                if NARROW.contains(&ty) {
                    push(
                        out,
                        sf,
                        t.line,
                        "r2",
                        format!(
                            "`{}() as {ty}` truncates silently once the counter \
                             outgrows {ty}; use try_from or a checked helper",
                            t.text
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::walk::{FileScope, SourceFile};

    fn lib_file() -> SourceFile {
        SourceFile {
            rel: "crates/x/src/lib.rs".into(),
            abs: std::path::PathBuf::new(),
            crate_name: "x".into(),
            scope: FileScope::Lib,
        }
    }

    fn bin_file() -> SourceFile {
        SourceFile {
            rel: "src/bin/cli.rs".into(),
            abs: std::path::PathBuf::new(),
            crate_name: "bgl-bfs".into(),
            scope: FileScope::Bin,
        }
    }

    fn rules_hit(sf: &SourceFile, src: &str) -> Vec<&'static str> {
        let lexed = lex(src);
        check_file(sf, &lexed)
            .findings
            .iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn d1_fires_on_std_hash_collections() {
        assert_eq!(
            rules_hit(&lib_file(), "use std::collections::HashMap;\n"),
            vec!["d1"]
        );
        assert!(rules_hit(&lib_file(), "use std::collections::BTreeMap;\n").is_empty());
        assert!(rules_hit(&lib_file(), "use rustc_hash::FxHashMap;\n").is_empty());
        // Bins are not exempt from d1: exported artifacts must be stable.
        assert_eq!(
            rules_hit(&bin_file(), "let m = HashSet::new();\n"),
            vec!["d1"]
        );
    }

    #[test]
    fn d2_fires_in_lib_not_bin() {
        let src = "let t = Instant::now();\nlet r = thread_rng();\n";
        assert_eq!(rules_hit(&lib_file(), src), vec!["d2", "d2"]);
        assert!(rules_hit(&bin_file(), src).is_empty());
        assert!(rules_hit(&lib_file(), "let i: Instant = deadline;\n").is_empty());
    }

    #[test]
    fn d3_needs_par_source_reducer_and_float() {
        let pos = "let s = xs.par_iter().map(|x| x.cost).sum::<f64>();\n";
        assert_eq!(rules_hit(&lib_file(), pos), vec!["d3"]);
        let int_sum = "let s = xs.par_iter().map(|x| x.n).sum::<u64>();\n";
        assert!(rules_hit(&lib_file(), int_sum).is_empty());
        let serial = "let s = xs.iter().map(|x| x.cost).sum::<f64>();\n";
        assert!(rules_hit(&lib_file(), serial).is_empty());
        // The reducer must be in the same statement.
        let two = "let v: Vec<f64> = xs.par_iter().map(|x| x.c).collect();\nlet s: f64 = v.iter().sum();\n";
        assert!(rules_hit(&lib_file(), two).is_empty());
    }

    #[test]
    fn r1_fires_on_panicky_calls_in_libs() {
        assert_eq!(
            rules_hit(
                &lib_file(),
                "let x = o.unwrap();\nlet y = r.expect(\"m\");\npanic!(\"no\");\n"
            ),
            vec!["r1", "r1", "r1"]
        );
        assert!(rules_hit(
            &lib_file(),
            "let x = o.unwrap_or(0);\nlet y = o.unwrap_or_else(f);\n"
        )
        .is_empty());
        assert!(rules_hit(&bin_file(), "panic!(\"bins may abort\");\n").is_empty());
        let bench = SourceFile {
            crate_name: "bench".into(),
            ..lib_file()
        };
        assert!(rules_hit(&bench, "panic!(\"bad measurement config\");\n").is_empty());
    }

    #[test]
    fn r2_fires_on_narrowing_len_casts() {
        assert_eq!(
            rules_hit(&lib_file(), "let n = v.len() as u32;\n"),
            vec!["r2"]
        );
        assert_eq!(
            rules_hit(&lib_file(), "let n = it.count() as i16;\n"),
            vec!["r2"]
        );
        assert!(rules_hit(
            &lib_file(),
            "let n = v.len() as u64;\nlet m = v.len() as usize;\n"
        )
        .is_empty());
    }

    #[test]
    fn pragmas_suppress_and_go_stale() {
        let src = "let m = HashMap::new(); // bgl-lint: allow(d1, reason = \"lookup only\")\n";
        let lexed = lex(src);
        let r = check_file(&lib_file(), &lexed);
        assert!(r.findings.is_empty());
        assert_eq!(r.suppressed, 1);
        assert_eq!(r.allows_used.len(), 1);

        // A pragma on the line above covers the next line.
        let above = "// bgl-lint: allow(r1, reason = \"slice nonempty by construction\")\nlet x = v.first().unwrap();\n";
        assert!(check_file(&lib_file(), &lex(above)).findings.is_empty());

        // An allow that matches nothing is itself a finding.
        let stale = "// bgl-lint: allow(r1, reason = \"nothing here\")\nlet x = 1;\n";
        assert_eq!(rules_hit(&lib_file(), stale), vec!["p1"]);

        // Wrong rule id does not suppress.
        let wrong = "let x = o.unwrap(); // bgl-lint: allow(d1, reason = \"wrong rule\")\n";
        let hits = rules_hit(&lib_file(), wrong);
        assert!(hits.contains(&"r1") && hits.contains(&"p1"), "{hits:?}");
    }

    #[test]
    fn malformed_pragma_is_a_finding() {
        let src = "let x = o.unwrap(); // bgl-lint: allow(r1)\n";
        let hits = rules_hit(&lib_file(), src);
        assert!(hits.contains(&"p0") && hits.contains(&"r1"), "{hits:?}");
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "
pub fn live(o: Option<u32>) -> u32 { o.unwrap_or(0) }
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() { let m: HashMap<u32, u32> = HashMap::new(); assert_eq!(m.len(), 0); Some(1).unwrap(); }
}
";
        assert!(rules_hit(&lib_file(), src).is_empty());
    }
}
