//! The incremental-state integrity rules (S1-S5).
//!
//! The scheduler's speed comes from incrementally-maintained mirrors of
//! simulator state (`ClusterView` ledgers, the locality index's per-stage
//! task sets, the reference profile). Their correctness contract —
//! *every mutation flows through a designated mutator, every mutator
//! emits its deltas, every mirror has a from-scratch rebuild oracle
//! exercised in debug builds* — was previously enforced only dynamically.
//! These rules make it static, driven by in-source registrations
//! (`lint: incremental(...)` / `lint: hotpath(...)` comments, see
//! [`crate::lexer::Registration`]):
//!
//! | rule | id | invariant |
//! |------|----|-----------|
//! | S1 | `mutation-escape`  | registered fields mutate only inside registered mutators |
//! | S2 | `delta-pairing`    | every mutator calls its registered pre/post delta pair |
//! | S3 | `oracle-coverage`  | oracles run under `debug_assert!`; debug-only fns are registered oracles |
//! | S4 | `assert-purity`    | assert arguments never call mutating functions |
//! | S5 | `panic-surface`    | `unwrap`/`expect`/indexing in hot-path fns needs a reasoned waiver |
//!
//! S1/S2/S5 are file-local (registrations bind to the file that declares
//! them); S3/S4 need crate-wide context (oracle call sites, `&mut self`
//! method names) and run in a second pass over all files of a crate.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Lexed, Registration, TokKind, Token};
use crate::parser::{match_delim, Parsed, Receiver};
use crate::rules::{
    Finding, Scope, ASSERT_PURITY, BAD_REGISTRATION, DELTA_PAIRING, MUTATION_ESCAPE,
    ORACLE_COVERAGE, PANIC_SURFACE, UNUSED_REGISTRATION,
};

/// One analyzed file, as seen by the crate-level passes.
pub struct FileCtx {
    pub rel: String,
    pub scope: Scope,
    pub lexed: Lexed,
    pub parsed: Parsed,
}

/// Method names that mutate their receiver — the built-in set S1 treats
/// as mutation evidence when called *directly on a registered field*
/// (`self.f.push(x)`). Extend per-field with the `via = [...]` clause.
/// Any `*_mut` method (`borrow_mut`, `get_mut`, ...) also counts.
const BUILTIN_MUT_METHODS: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "clear",
    "extend",
    "drain",
    "truncate",
    "resize",
    "fill",
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_unstable_by",
    "sort_by_key",
    "retain",
    "take",
    "replace",
    "append",
    "swap",
    "swap_remove",
    "split_off",
    "push_str",
    "entry",
    "dedup",
    "reverse",
    "rotate_left",
    "rotate_right",
    "clone_from",
    "make_contiguous",
];

fn is_punct(t: Option<&Token>, c: char) -> bool {
    matches!(t, Some(t) if t.kind == TokKind::Punct(c))
}

fn ident_text(t: Option<&Token>) -> Option<&str> {
    match t {
        Some(t) if t.kind == TokKind::Ident => Some(&t.text),
        _ => None,
    }
}

fn finding(file: &str, t: &Token, rule: &'static str, message: String) -> Finding {
    Finding {
        file: file.to_string(),
        line: t.line,
        col: t.col,
        rule,
        message,
    }
}

fn finding_at(file: &str, line: u32, rule: &'static str, message: String) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        col: 1,
        rule,
        message,
    }
}

fn is_mutating_method(name: &str, via: &[String]) -> bool {
    via.iter().any(|v| v == name) || BUILTIN_MUT_METHODS.contains(&name) || name.ends_with("_mut")
}

/// Is the place expression ending at the `.` token `dot` taken by `&mut`?
/// Walks left over the chain (`idents`, `.`/tuple indices, balanced
/// `[..]`/`(..)` groups) looking for a `&mut` prefix.
fn mut_borrow_before(toks: &[Token], dot: usize) -> bool {
    let mut depth = 0usize;
    let mut k = dot;
    while k > 0 {
        k -= 1;
        match toks[k].kind {
            TokKind::Punct(']') | TokKind::Punct(')') => depth += 1,
            TokKind::Punct('[') | TokKind::Punct('(') => {
                if depth == 0 {
                    return false;
                }
                depth -= 1;
            }
            _ if depth > 0 => {}
            TokKind::Punct('.') | TokKind::Literal => {}
            TokKind::Ident if toks[k].text == "mut" => {
                return k > 0 && toks[k - 1].kind == TokKind::Punct('&');
            }
            TokKind::Ident => {}
            _ => return false,
        }
    }
    false
}

/// How one `.field` access uses the field.
enum Access {
    Read,
    /// Mutation evidence at this token index (the field ident or the
    /// mutating method name).
    Mutation(usize, &'static str),
}

/// Classify the access starting at `toks[dot] == '.'`, `toks[dot+1]` being
/// the registered field ident. Follows the place chain forward (index
/// groups, nested fields, tuple indices) until a method call or an
/// operator decides read vs. mutation.
fn classify_access(toks: &[Token], dot: usize, via: &[String]) -> Access {
    if mut_borrow_before(toks, dot) {
        return Access::Mutation(dot + 1, "`&mut` borrow");
    }
    let mut j = dot + 2;
    loop {
        if is_punct(toks.get(j), '[') {
            match match_delim(toks, j, '[', ']') {
                Some(close) => j = close + 1,
                None => return Access::Read,
            }
        } else if is_punct(toks.get(j), '.') {
            match toks.get(j + 1) {
                Some(t) if t.kind == TokKind::Ident => {
                    if is_punct(toks.get(j + 2), '(') {
                        return if is_mutating_method(&t.text, via) {
                            Access::Mutation(j + 1, "mutating method call")
                        } else {
                            Access::Read
                        };
                    }
                    j += 2; // nested field
                }
                Some(t) if t.kind == TokKind::Literal => j += 2, // tuple index
                _ => return Access::Read,
            }
        } else {
            break;
        }
    }
    match toks.get(j).map(|t| t.kind) {
        Some(TokKind::Punct('=')) => {
            if matches!(
                toks.get(j + 1).map(|t| t.kind),
                Some(TokKind::Punct('=')) | Some(TokKind::Punct('>'))
            ) {
                Access::Read // `==` comparison or `=>` match arm
            } else {
                Access::Mutation(dot + 1, "assignment")
            }
        }
        Some(TokKind::Punct(op)) if "+-*/%&|^".contains(op) && is_punct(toks.get(j + 1), '=') => {
            Access::Mutation(dot + 1, "compound assignment")
        }
        Some(TokKind::Punct(sh @ ('<' | '>')))
            if is_punct(toks.get(j + 1), sh) && is_punct(toks.get(j + 2), '=') =>
        {
            Access::Mutation(dot + 1, "shift assignment")
        }
        _ => Access::Read,
    }
}

/// File-local pass: registration validation, S1 (mutation escape),
/// S2 (delta pairing), S5 (panic surface).
pub fn check_file(file: &str, _scope: &Scope, lexed: &Lexed, parsed: &Parsed) -> Vec<Finding> {
    let toks = &lexed.tokens;
    let mut out: Vec<Finding> = Vec::new();

    let fn_names: BTreeSet<&str> = parsed.fns.iter().map(|f| f.name.as_str()).collect();
    let field_names: BTreeSet<&str> = parsed
        .structs
        .iter()
        .flat_map(|s| s.fields.iter().map(String::as_str))
        .collect();

    // --- Registration manifest validation -------------------------------
    let mut regs: BTreeMap<&str, &Registration> = BTreeMap::new();
    for reg in &lexed.regs {
        if let Some(err) = &reg.error {
            out.push(finding_at(
                file,
                reg.line,
                BAD_REGISTRATION,
                format!("malformed registration: {err}"),
            ));
            continue;
        }
        if regs.insert(reg.field.as_str(), reg).is_some() {
            out.push(finding_at(
                file,
                reg.line,
                BAD_REGISTRATION,
                format!("duplicate registration for field `{}`", reg.field),
            ));
            continue;
        }
        if !field_names.contains(reg.field.as_str()) {
            out.push(finding_at(
                file,
                reg.line,
                BAD_REGISTRATION,
                format!(
                    "registered field `{}` is not declared by any struct in this file",
                    reg.field
                ),
            ));
        }
        for (kind, names) in [
            ("mutator", &reg.mutators),
            ("init fn", &reg.init),
            ("pair fn", &reg.pairs),
        ] {
            for name in names {
                if !fn_names.contains(name.as_str()) {
                    out.push(finding_at(
                        file,
                        reg.line,
                        BAD_REGISTRATION,
                        format!("{kind} `{name}` is not defined in this file"),
                    ));
                }
            }
        }
        // Is the field ever accessed (`.field`) in this file at all?
        let used = toks.windows(2).any(|w| {
            w[0].kind == TokKind::Punct('.')
                && w[1].kind == TokKind::Ident
                && w[1].text == reg.field
        });
        if !used {
            out.push(finding_at(
                file,
                reg.line,
                UNUSED_REGISTRATION,
                format!("field `{}` is never accessed in this file", reg.field),
            ));
        }
    }

    // --- S1: mutation escape --------------------------------------------
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Punct('.') {
            continue;
        }
        let Some(fname) = ident_text(toks.get(i + 1)) else {
            continue;
        };
        let Some(reg) = regs.get(fname) else {
            continue;
        };
        if is_punct(toks.get(i + 2), '(') {
            continue; // a method call that merely shares the field's name
        }
        let Access::Mutation(site, how) = classify_access(toks, i, &reg.via) else {
            continue;
        };
        let holder = parsed.fn_containing(i + 1);
        let allowed =
            holder.is_some_and(|g| reg.mutators.contains(&g.name) || reg.init.contains(&g.name));
        if !allowed {
            let where_ =
                holder.map_or("outside any fn".to_string(), |g| format!("in `{}`", g.name));
            out.push(finding(
                file,
                &toks[site],
                MUTATION_ESCAPE,
                format!(
                    "registered field `{fname}` mutated {where_} ({how}) — not a registered mutator"
                ),
            ));
        }
    }

    // --- S2: delta pairing ----------------------------------------------
    for reg in regs.values() {
        if reg.pairs.len() != 2 {
            continue;
        }
        let (pre, post) = (&reg.pairs[0], &reg.pairs[1]);
        for m in &reg.mutators {
            for f in parsed.fns.iter().filter(|f| &f.name == m) {
                let Some((a, b)) = f.body else { continue };
                let call_idx = |name: &str, from: usize| {
                    (from.max(a)..b).find(|&k| {
                        toks[k].kind == TokKind::Ident
                            && toks[k].text == *name
                            && is_punct(toks.get(k + 1), '(')
                    })
                };
                let paired = match call_idx(pre, a) {
                    Some(p) => call_idx(post, p + 1).is_some(),
                    None => false,
                };
                if !paired {
                    out.push(finding_at(
                        file,
                        f.line,
                        DELTA_PAIRING,
                        format!(
                            "registered mutator `{m}` of `{}` must call `{pre}` then `{post}`",
                            reg.field
                        ),
                    ));
                }
            }
        }
    }

    // --- S5: panic surface in hot-path fns ------------------------------
    let mut hot: BTreeSet<&str> = BTreeSet::new();
    for h in &lexed.hots {
        if let Some(err) = &h.error {
            out.push(finding_at(
                file,
                h.line,
                BAD_REGISTRATION,
                format!("malformed hotpath annotation: {err}"),
            ));
        }
        for name in &h.fns {
            if !fn_names.contains(name.as_str()) {
                out.push(finding_at(
                    file,
                    h.line,
                    BAD_REGISTRATION,
                    format!("hotpath fn `{name}` is not defined in this file"),
                ));
            }
            hot.insert(name);
        }
    }
    for f in parsed.fns.iter().filter(|f| hot.contains(f.name.as_str())) {
        let Some((a, b)) = f.body else { continue };
        for k in a..b {
            match toks[k].kind {
                TokKind::Ident
                    if (toks[k].text == "unwrap" || toks[k].text == "expect")
                        && k > 0
                        && toks[k - 1].kind == TokKind::Punct('.')
                        && is_punct(toks.get(k + 1), '(') =>
                {
                    out.push(finding(
                        file,
                        &toks[k],
                        PANIC_SURFACE,
                        format!("`{}` in hot-path fn `{}` can panic", toks[k].text, f.name),
                    ));
                }
                TokKind::Punct('[') if k > 0 && is_indexing_base(&toks[k - 1]) => {
                    out.push(finding(
                        file,
                        &toks[k],
                        PANIC_SURFACE,
                        format!(
                            "direct indexing in hot-path fn `{}` panics when out of bounds",
                            f.name
                        ),
                    ));
                }
                _ => {}
            }
        }
    }

    out
}

/// Does a `[` after this token index into a value (as opposed to opening
/// an array literal, attribute, or type)?
fn is_indexing_base(prev: &Token) -> bool {
    match prev.kind {
        TokKind::Punct(']') | TokKind::Punct(')') => true,
        TokKind::Ident => !matches!(
            prev.text.as_str(),
            "in" | "return"
                | "break"
                | "else"
                | "match"
                | "if"
                | "while"
                | "loop"
                | "mut"
                | "let"
                | "move"
                | "ref"
                | "const"
                | "static"
                | "as"
                | "box"
                | "yield"
        ),
        _ => false,
    }
}

/// Crate-level pass: S3 (oracle coverage) and S4 (assert purity). `ctxs`
/// is every analyzed file in the tree; findings are attributed to the file
/// they occur in.
pub fn check_crates(ctxs: &[FileCtx]) -> Vec<Finding> {
    let mut out: Vec<Finding> = Vec::new();

    // Global call-site map: fn name -> (file idx, token idx). Method and
    // free-fn calls look identical at token level (`name(`), which is the
    // conservative direction for "is this fn ever called outside asserts".
    let mut call_sites: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (fi, ctx) in ctxs.iter().enumerate() {
        let toks = &ctx.lexed.tokens;
        for (k, t) in toks.iter().enumerate() {
            if t.kind == TokKind::Ident
                && is_punct(toks.get(k + 1), '(')
                && !(k > 0 && toks[k - 1].kind == TokKind::Ident && toks[k - 1].text == "fn")
            {
                call_sites.entry(t.text.as_str()).or_default().push((fi, k));
            }
        }
    }

    // Group files by crate.
    let mut by_crate: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (fi, ctx) in ctxs.iter().enumerate() {
        by_crate
            .entry(ctx.scope.crate_name.as_str())
            .or_default()
            .push(fi);
    }

    for files in by_crate.values() {
        // Crate-wide mutating-fn name set for S4: `&mut self` methods
        // (incl. trait declarations) plus every registered mutator.
        let mut mut_fns: BTreeSet<&str> = BTreeSet::new();
        let mut oracles: BTreeSet<&str> = BTreeSet::new();
        let mut defined: BTreeSet<&str> = BTreeSet::new();
        for &fi in files {
            let ctx = &ctxs[fi];
            for f in &ctx.parsed.fns {
                defined.insert(f.name.as_str());
                if f.receiver == Receiver::RefMut {
                    mut_fns.insert(f.name.as_str());
                }
            }
            for reg in ctx.lexed.regs.iter().filter(|r| r.error.is_none()) {
                mut_fns.extend(reg.mutators.iter().map(String::as_str));
                if let Some(o) = &reg.oracle {
                    oracles.insert(o.as_str());
                }
            }
        }

        // S3 forward: every registered oracle is exercised under
        // debug_assert! (or a cfg(debug_assertions) region) in this crate.
        for &fi in files {
            let ctx = &ctxs[fi];
            for reg in ctx.lexed.regs.iter().filter(|r| r.error.is_none()) {
                let Some(oracle) = &reg.oracle else { continue };
                if !defined.contains(oracle.as_str()) {
                    out.push(finding_at(
                        &ctx.rel,
                        reg.line,
                        BAD_REGISTRATION,
                        format!("oracle `{oracle}` is not defined in this crate"),
                    ));
                    continue;
                }
                let covered = call_sites.get(oracle.as_str()).is_some_and(|sites| {
                    sites.iter().any(|&(sfi, k)| {
                        files.contains(&sfi)
                            && (ctxs[sfi].parsed.in_debug_assert(k)
                                || ctxs[sfi].parsed.in_cfg_debug(k))
                    })
                });
                if !covered {
                    out.push(finding_at(
                        &ctx.rel,
                        reg.line,
                        ORACLE_COVERAGE,
                        format!(
                            "oracle `{oracle}` for field `{}` is never checked under \
                             debug_assert! in this crate",
                            reg.field
                        ),
                    ));
                }
            }
        }

        // S3 reverse: a fn called *only* from assert arguments (with at
        // least one debug-assert site) is a de-facto oracle — it must be
        // registered, or it will silently stop guarding anything when the
        // asserts move.
        for &fi in files {
            let ctx = &ctxs[fi];
            if ctx.scope.dir != crate::rules::Dir::CrateSrc {
                continue; // test-helper predicates are not oracles
            }
            for f in &ctx.parsed.fns {
                if f.body.is_none()
                    || oracles.contains(f.name.as_str())
                    || ctx
                        .parsed
                        .cfg_test
                        .iter()
                        .any(|&(a, b)| f.body.is_some_and(|(s, _)| (a..b).contains(&s)))
                {
                    continue;
                }
                let Some(sites) = call_sites.get(f.name.as_str()) else {
                    continue;
                };
                let all_assert = sites
                    .iter()
                    .all(|&(sfi, k)| ctxs[sfi].parsed.in_any_assert(k));
                let any_debug = sites.iter().any(|&(sfi, k)| {
                    ctxs[sfi].parsed.in_debug_assert(k) || ctxs[sfi].parsed.in_cfg_debug(k)
                });
                if all_assert && any_debug {
                    out.push(finding_at(
                        &ctx.rel,
                        f.line,
                        ORACLE_COVERAGE,
                        format!(
                            "`{}` is only ever called under asserts — register it as an \
                             incremental oracle (`lint: incremental(.., oracle = {})`)",
                            f.name, f.name
                        ),
                    ));
                }
            }
        }

        // S4: assert arguments must not call mutating fns. `debug_assert*`
        // is checked everywhere (it vanishes in release, so a side effect
        // changes release schedules); the always-on `assert*` family only
        // in library code (tests idiomatically assert mutator returns).
        for &fi in files {
            let ctx = &ctxs[fi];
            let toks = &ctx.lexed.tokens;
            for a in &ctx.parsed.asserts {
                if !a.debug && (!ctx.scope.is_lib() || ctx.parsed.in_cfg_test(a.args.0)) {
                    continue;
                }
                for k in a.args.0..a.args.1 {
                    if toks[k].kind == TokKind::Ident
                        && is_punct(toks.get(k + 1), '(')
                        && mut_fns.contains(toks[k].text.as_str())
                    {
                        out.push(finding(
                            &ctx.rel,
                            &toks[k],
                            ASSERT_PURITY,
                            format!(
                                "`{}!` argument calls `{}`, which mutates state — the \
                                 assert's side effect would vanish in release builds",
                                a.name, toks[k].text
                            ),
                        ));
                    }
                }
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::rules::{apply_waivers, Dir};

    fn ctx(crate_name: &str, dir: Dir, rel: &str, src: &str) -> FileCtx {
        let lexed = lex(src);
        let parsed = parse(&lexed.tokens);
        FileCtx {
            rel: rel.to_string(),
            scope: Scope::new(crate_name, dir),
            lexed,
            parsed,
        }
    }

    /// Whole-pipeline check over one file (file pass + crate pass +
    /// waivers), as `analyze` runs it.
    fn check(src: &str) -> Vec<Finding> {
        let c = ctx("cluster", Dir::CrateSrc, "mem.rs", src);
        let mut raw = check_file("mem.rs", &c.scope, &c.lexed, &c.parsed);
        raw.extend(check_crates(std::slice::from_ref(&c)));
        apply_waivers("mem.rs", &c.lexed, &c.parsed, raw).0
    }

    const REGISTERED: &str = "\
// lint: incremental(cnt, mutators = [bump], init = [new], oracle = check_cnt)
struct S { cnt: Vec<u32>, other: u32 }
impl S {
    fn new() -> Self { let mut s = S { cnt: vec![], other: 0 }; s.cnt.push(0); s }
    fn bump(&mut self, i: usize) { self.cnt[i] += 1; }
    fn check_cnt(&self) -> bool { self.cnt.iter().all(|&c| c < 10) }
    fn peek(&self) -> u32 { self.cnt[0] }
    fn run(&mut self) { debug_assert!(self.check_cnt()); }
}
";

    #[test]
    fn s1_clean_when_mutations_stay_in_mutators() {
        assert_eq!(check(REGISTERED), vec![]);
    }

    #[test]
    fn s1_flags_escaped_mutations() {
        for (snippet, what) in [
            ("fn rogue(&mut self) { self.cnt[0] = 7; }", "assignment"),
            ("fn rogue(&mut self) { self.cnt.push(7); }", "method"),
            ("fn rogue(&mut self) { self.cnt[0] += 7; }", "compound"),
            ("fn rogue(&mut self) { take(&mut self.cnt); }", "borrow"),
            (
                "fn rogue(&mut self) { self.cnt.iter_mut().count(); }",
                "_mut method",
            ),
        ] {
            let src = format!("{}impl S {{ {snippet} }}\n", REGISTERED);
            let f = check(&src);
            assert!(f.iter().any(|f| f.rule == MUTATION_ESCAPE), "{what}: {f:?}");
        }
        // Reads do not trip S1.
        let read = format!(
            "{}impl S {{ fn look(&self) -> bool {{ self.cnt[0] == 1 && self.cnt.len() > 0 }} }}\n",
            REGISTERED
        );
        assert_eq!(check(&read), vec![]);
    }

    #[test]
    fn s1_respects_via_methods() {
        let src = "\
// lint: incremental(view, mutators = [step], via = [apply])
struct W { view: V }
impl W {
    fn step(&mut self) { self.view.apply(1); }
    fn rogue(&mut self) { self.view.apply(2); }
    fn read(&self) -> u32 { self.view.peek() }
}
";
        let f = check(src);
        assert_eq!(f.iter().filter(|f| f.rule == MUTATION_ESCAPE).count(), 1);
        assert!(f[0].message.contains("rogue"), "{f:?}");
    }

    #[test]
    fn s2_requires_the_pair_in_order() {
        let good = "\
// lint: incremental(bits, mutators = [set], pairs = [cap, com])
struct S { bits: u64 }
impl S {
    fn cap(&mut self) {}
    fn com(&mut self) {}
    fn set(&mut self) { self.cap(); self.bits |= 1; self.com(); }
}
";
        assert_eq!(check(good), vec![]);
        let missing = good.replace("self.cap(); ", "");
        assert!(check(&missing).iter().any(|f| f.rule == DELTA_PAIRING));
        let reversed = "\
// lint: incremental(bits, mutators = [set], pairs = [cap, com])
struct S { bits: u64 }
impl S {
    fn cap(&mut self) {}
    fn com(&mut self) {}
    fn set(&mut self) { self.com(); self.bits |= 1; self.cap(); }
}
";
        assert!(check(reversed).iter().any(|f| f.rule == DELTA_PAIRING));
    }

    #[test]
    fn s3_forward_wants_a_debug_assert_site() {
        // REGISTERED has `debug_assert!(self.check_cnt())` — remove it and
        // S3 fires on the registration line.
        let uncovered = REGISTERED.replace("debug_assert!(self.check_cnt());", "");
        let f = check(&uncovered);
        assert!(f.iter().any(|f| f.rule == ORACLE_COVERAGE), "{f:?}");
        // A cfg(debug_assertions)-gated plain call also counts.
        let gated = REGISTERED.replace(
            "debug_assert!(self.check_cnt());",
            "#[cfg(debug_assertions)] { self.check_cnt(); }",
        );
        assert_eq!(check(&gated), vec![]);
    }

    #[test]
    fn s3_reverse_flags_unregistered_debug_only_fns() {
        let src = "\
struct S { n: u32 }
impl S {
    fn shadow_ok(&self) -> bool { self.n < 10 }
    fn run(&mut self) { self.n += 1; debug_assert!(self.shadow_ok()); }
}
";
        let f = check(src);
        assert!(
            f.iter()
                .any(|f| f.rule == ORACLE_COVERAGE && f.message.contains("shadow_ok")),
            "{f:?}"
        );
        // One plain (non-assert) call site exempts it.
        let used = src.replace(
            "fn run(&mut self)",
            "fn also(&self) -> bool { self.shadow_ok() }\n    fn run(&mut self)",
        );
        assert_eq!(check(&used), vec![]);
    }

    #[test]
    fn s4_flags_mutating_calls_in_assert_args() {
        let src = "\
struct S { n: u32 }
impl S {
    fn tick(&mut self) -> bool { self.n += 1; true }
    fn run(&mut self) { debug_assert!(self.tick()); }
}
";
        let f = check(src);
        assert!(f.iter().any(|f| f.rule == ASSERT_PURITY), "{f:?}");
        // The same call under `assert!` in a cfg(test) module is fine.
        let test_mod = "\
struct S { n: u32 }
impl S { fn tick(&mut self) -> bool { self.n += 1; true } }
#[cfg(test)]
mod tests { fn t(s: &mut super::S) { assert!(s.tick()); } }
";
        assert_eq!(check(test_mod), vec![]);
    }

    #[test]
    fn s5_audits_hot_fns_and_accepts_fn_level_waivers() {
        let src = "\
// lint: hotpath(probe)
struct S { v: Vec<u32> }
impl S {
    fn probe(&self, i: usize) -> u32 { self.v[i] + self.v.first().unwrap() }
    fn cold(&self, i: usize) -> u32 { self.v[i] }
}
";
        let f = check(src);
        assert_eq!(f.iter().filter(|f| f.rule == PANIC_SURFACE).count(), 2);
        let waived = src.replace(
            "    fn probe",
            "    // lint: allow(panic-surface): indices bounded by construction\n    fn probe",
        );
        assert_eq!(check(&waived), vec![]);
    }

    #[test]
    fn registration_meta_findings() {
        let dup = "\
// lint: incremental(n, mutators = [set])
// lint: incremental(n, mutators = [set])
struct S { n: u32 }
impl S { fn set(&mut self) { self.n = 1; } }
";
        assert!(check(dup).iter().any(|f| f.rule == BAD_REGISTRATION));
        let ghost_field = "\
// lint: incremental(missing, mutators = [set])
struct S { n: u32 }
impl S { fn set(&mut self) { self.n = 1; } }
";
        assert!(check(ghost_field)
            .iter()
            .any(|f| f.rule == BAD_REGISTRATION));
        let unused = "\
// lint: incremental(n, mutators = [set])
struct S { n: u32 }
impl S { fn set(&mut self) {} }
";
        assert!(check(unused).iter().any(|f| f.rule == UNUSED_REGISTRATION));
    }
}
