//! Property tests for the lint front-end: generated nested-brace /
//! comment / raw-string soup must never panic the lexer or the block
//! parser, and every emitted token must round-trip to its `(line, col)`
//! span in the source.
//!
//! The lexer's one hard job is *never* emitting tokens from inside
//! strings or comments while keeping byte-exact spans; the parser's is
//! tolerating arbitrarily malformed nesting (it runs on code rustc has
//! not yet accepted). Both contracts are purely structural, so they are
//! checkable on any input — including input no compiler would take.

use dagon_lint::lexer::{lex, TokKind};
use dagon_lint::parser::parse;
use proptest::prelude::*;

/// Fragment pool skewed toward the lexer's hard cases: nested block
/// comments, raw strings holding code-looking text, escapes, lifetimes
/// vs. char literals, malformed annotations, and unbalanced braces.
const FRAGMENTS: &[&str] = &[
    "fn alpha(&mut self) { self.x += 1; }\n",
    "fn beta() -> u32 { let v = vec![1, 2]; v[0] }\n",
    "struct S { field: Vec<u64>, other: (u8, u8) }\n",
    "impl S { fn gamma(&self) -> bool { self.field.is_empty() } }\n",
    "debug_assert!(check(a[i], b.len()));\n",
    "// plain comment with { braces } and \" quotes\n",
    "/* block comment /* nested */ still comment */\n",
    "/// doc comment mentioning lint: allow(hash-ordered): not real\n",
    "// lint: allow(hash-ordered): a reason that mentions ) and {\n",
    "// lint: incremental(field, mutators = [alpha, beta])\n",
    "// lint: incremental(field, mutators = [alpha\n",
    "// lint: incremental(\n",
    "// lint: hotpath(alpha, beta)\n",
    "// lint: hotpath(\n",
    "let s = \"string with } brace and // comment and \\\" escape\";\n",
    "let r = r\"raw with { and /* and \\ \";\n",
    "let rh = r#\"raw-hash with \" inside and }} and 'x\"#;\n",
    "let bs = b\"byte string with { \";\n",
    "let br = br##\"double-hash raw \"# not the end\"##;\n",
    "let c = 'x'; let esc = '\\''; let nl = '\\n';\n",
    "fn delta<'a>(x: &'a str) -> &'a str { x }\n",
    "let n = 0x1f_u64 + 1_000 + 1.5e3 as u64;\n",
    "match x { Some(_) => {} None => {} }\n",
    "{ { { } } }\n",
    "} // stray closing brace\n",
    "{ // unclosed brace\n",
    "#[cfg(test)]\nmod tests { fn t() { assert!(true); } }\n",
];

/// Tail-only fragments: unterminated constructs the lexer must swallow
/// without panicking (everything after them is gone, so they only make
/// sense as the last fragment).
const TAILS: &[&str] = &[
    "let bad = \"unterminated string\n",
    "/* unterminated block comment\n",
    "let raw = r#\"unterminated raw\n",
];

/// Deterministic fragment soup from a seed (splitmix64 steps).
fn soup(seed: u64, n: usize) -> String {
    let mut s = seed;
    let mut step = || {
        s = s.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let mut src = String::new();
    for _ in 0..n {
        src.push_str(FRAGMENTS[below(step(), FRAGMENTS.len())]);
    }
    // One run in four ends mid-construct.
    if step() % 4 == 0 {
        src.push_str(TAILS[below(step(), TAILS.len())]);
    }
    src
}

/// An index below `len` from one splitmix64 draw.
fn below(r: u64, len: usize) -> usize {
    usize::try_from(r % len as u64).expect("a remainder below a usize fits one")
}

/// The byte the token claims to start at, resolved through its 1-based
/// `(line, col)` span. Fragments are ASCII, so `col` is a byte column.
fn at_span<'a>(lines: &[&'a str], line: u32, col: u32) -> &'a str {
    let l = lines
        .get(line as usize - 1)
        .unwrap_or_else(|| panic!("token line {line} out of range"));
    &l[col as usize - 1..]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lexing and block-parsing generated soup never panics, token spans
    /// are strictly increasing, and each token round-trips: slicing the
    /// source at `(line, col)` reproduces the token.
    #[test]
    fn lexer_spans_round_trip(seed in any::<u64>(), n in 1usize..40) {
        let src = soup(seed, n);
        let lexed = lex(&src);
        let lines: Vec<&str> = src.split('\n').collect();
        let mut last = (0u32, 0u32);
        for t in &lexed.tokens {
            prop_assert!(
                (t.line, t.col) > last,
                "token spans not strictly increasing at {}:{}", t.line, t.col
            );
            last = (t.line, t.col);
            let rest = at_span(&lines, t.line, t.col);
            match t.kind {
                TokKind::Ident => {
                    prop_assert!(!t.text.is_empty());
                    prop_assert!(
                        rest.starts_with(&t.text),
                        "ident `{}` not at {}:{}", t.text, t.line, t.col
                    );
                }
                TokKind::Punct(c) => {
                    prop_assert_eq!(rest.chars().next(), Some(c));
                }
                TokKind::Literal => {
                    let c = rest.chars().next().unwrap_or('\0');
                    prop_assert!(
                        c.is_ascii_digit() || c == '"' || c == '\'' || c == 'r' || c == 'b',
                        "literal starts with `{c}` at {}:{}", t.line, t.col
                    );
                }
                TokKind::Lifetime => {
                    prop_assert!(rest.starts_with('\''));
                }
            }
        }
        // The block parser tolerates whatever nesting came out.
        let parsed = parse(&lexed.tokens);
        for f in &parsed.fns {
            if let Some((a, b)) = f.body {
                prop_assert!(a <= b && b <= lexed.tokens.len(), "fn `{}` body range", f.name);
                // Containment is consistent: an index inside the body maps
                // back to a fn whose body covers it.
                if a < b {
                    let g = parsed.fn_containing(a).expect("body token inside some fn");
                    let (ga, gb) = g.body.expect("containing fn has a body");
                    prop_assert!(ga <= a && a < gb);
                }
            }
        }
        for a in &parsed.asserts {
            prop_assert!(a.args.0 <= a.args.1 && a.args.1 <= lexed.tokens.len());
        }
    }

    /// Tokens never come from inside strings or comments: a fragment that
    /// is 100% comment/string produces no `HashMap`-shaped idents even
    /// when its text spells them out.
    #[test]
    fn strings_and_comments_emit_no_code(seed in any::<u64>(), n in 1usize..20) {
        let mut src = String::new();
        let mut s = seed;
        for _ in 0..n {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            src.push_str(match (s >> 33) % 4 {
                0 => "// HashMap::new() in a comment\n",
                1 => "/* Instant::now() /* nested */ in a block */\n",
                2 => "let x = \"HashMap in a string\";\n",
                _ => "let y = r#\"thread_rng in a raw string\"#;\n",
            });
        }
        let lexed = lex(&src);
        for t in &lexed.tokens {
            prop_assert!(
                !matches!(t.text.as_str(), "HashMap" | "Instant" | "thread_rng"),
                "leaked `{}` out of a string/comment", t.text
            );
        }
    }
}
