//! The determinism rules.
//!
//! Every rule reports [`Finding`]s as `file:line rule message`. A
//! finding can be silenced with a justified suppression comment (see
//! [`crate::source::Suppression`]), which the `suppression-audit` rule
//! then counts against the `lint-baseline.toml` ratchet.
//!
//! | rule | invariant |
//! |------|-----------|
//! | `hash-iter` | no iteration over `HashMap`/`HashSet` anywhere — iteration order could leak into experiment output |
//! | `wall-clock` | `Instant`/`SystemTime` only in `crates/bench/src/timing.rs` |
//! | `stdout-discipline` | no `println!`/`eprintln!` in library code — experiment output flows through `quartz_bench::outln!` |
//! | `seed-discipline` | no literal-seeded RNG outside tests — seeds flow from parameters or `pool::unit_seed` |
//! | `crate-hygiene` | every crate root carries `#![deny(missing_docs)]` and `#![forbid(unsafe_code)]` |
//! | `suppression-audit` | every `lint:allow` is justified, used, and counted by the ratchet |
//! | `cast-soundness` | narrowing `as` casts in hot-crate library code sit next to a `debug_assert!`/`try_from` guard |
//! | `float-determinism` | no float accumulation over unordered iteration, `partial_cmp(..).unwrap()` comparators, bare float `<`/`>` in selection closures, or float reductions inside `par_map` |
//! | `panic-freedom` | no `unwrap`/`expect`/unguarded indexing in modules opted in via `// lint:panic-free` |
//! | `hot-path-alloc` | no allocation (`Vec::new`/`push`/`collect`/`format!`/`Box::new`) in functions annotated `// lint:hot` |

use crate::lexer::TokKind;
use crate::model::FileModel;
use crate::source::SourceFile;
use crate::syntax::{casts_in, method_calls_in, Span};
use std::collections::BTreeSet;

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line (0 for whole-workspace findings).
    pub line: usize,
    /// Rule name.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

/// The `hash-iter` rule name.
pub const HASH_ITER: &str = "hash-iter";
/// The `wall-clock` rule name.
pub const WALL_CLOCK: &str = "wall-clock";
/// The `stdout-discipline` rule name.
pub const STDOUT_DISCIPLINE: &str = "stdout-discipline";
/// The `seed-discipline` rule name.
pub const SEED_DISCIPLINE: &str = "seed-discipline";
/// The `crate-hygiene` rule name.
pub const CRATE_HYGIENE: &str = "crate-hygiene";
/// The `suppression-audit` rule name.
pub const SUPPRESSION_AUDIT: &str = "suppression-audit";
/// The `cast-soundness` rule name.
pub const CAST_SOUNDNESS: &str = "cast-soundness";
/// The `float-determinism` rule name.
pub const FLOAT_DETERMINISM: &str = "float-determinism";
/// The `panic-freedom` rule name.
pub const PANIC_FREEDOM: &str = "panic-freedom";
/// The `hot-path-alloc` rule name.
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";

/// Every rule name, in reporting order.
pub const ALL_RULES: [&str; 10] = [
    HASH_ITER,
    WALL_CLOCK,
    STDOUT_DISCIPLINE,
    SEED_DISCIPLINE,
    CRATE_HYGIENE,
    SUPPRESSION_AUDIT,
    CAST_SOUNDNESS,
    FLOAT_DETERMINISM,
    PANIC_FREEDOM,
    HOT_PATH_ALLOC,
];

/// Methods whose call on a hash container exposes iteration order.
const ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// The only file allowed to touch the wall clock.
const WALL_CLOCK_SANCTUARY: &str = "crates/bench/src/timing.rs";

/// `hash-iter`: no iteration over `HashMap`/`HashSet`.
///
/// The detector is heuristic but deliberately conservative in what it
/// *tracks*: a name is considered hash-typed when it is bound or
/// declared with a `HashMap`/`HashSet` type or constructor in the same
/// file. Only *iteration* over a tracked name fires — key lookups,
/// `insert`, `contains`, and `len` are order-free and stay legal, which
/// is why e.g. duplicate-detection sets in tests pass untouched.
pub fn hash_iter(f: &SourceFile) -> Vec<Finding> {
    let names = tracked_hash_names(f);
    if names.is_empty() {
        return Vec::new();
    }
    let toks = &f.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // `name.iter()` and friends.
        if names.contains(&t.text)
            && f.punct_at(i + 1, '.')
            && toks.get(i + 2).is_some_and(|m| {
                m.kind == TokKind::Ident && ITER_METHODS.contains(&m.text.as_str())
            })
            && f.punct_at(i + 3, '(')
        {
            out.push(Finding {
                file: f.rel.clone(),
                line: t.line,
                rule: HASH_ITER,
                message: format!(
                    "iteration over hash container `{}` via `.{}()` — hash order is \
                     nondeterministic; use BTreeMap/BTreeSet or sort before iterating",
                    t.text,
                    toks[i + 2].text
                ),
            });
        }
        // `for x in &name {` / `for x in name {`.
        if t.text == "for" {
            let stop = (i + 60).min(toks.len());
            let mut j = i + 1;
            while j < stop && toks[j].text != "in" && toks[j].text != "{" {
                j += 1;
            }
            if j < stop && toks[j].text == "in" {
                let mut k = j + 1;
                while k < toks.len() && (toks[k].text == "&" || toks[k].text == "mut") {
                    k += 1;
                }
                if toks.get(k).is_some_and(|t| t.kind == TokKind::Ident)
                    && names.contains(&toks[k].text)
                    && f.punct_at(k + 1, '{')
                {
                    out.push(Finding {
                        file: f.rel.clone(),
                        line: toks[k].line,
                        rule: HASH_ITER,
                        message: format!(
                            "`for … in` over hash container `{}` — hash order is \
                             nondeterministic; use BTreeMap/BTreeSet or sort before iterating",
                            toks[k].text
                        ),
                    });
                }
            }
        }
    }
    out
}

/// Names bound or declared with a `HashMap`/`HashSet` type in this file.
fn tracked_hash_names(f: &SourceFile) -> BTreeSet<String> {
    let toks = &f.toks;
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // Type position: `name: [&] [mut] path::to::Hash…`.
        let mut j = i;
        while j >= 3
            && toks[j - 1].text == ":"
            && toks[j - 2].text == ":"
            && toks[j - 3].kind == TokKind::Ident
        {
            j -= 3;
        }
        while j >= 1 && (toks[j - 1].text == "&" || toks[j - 1].text == "mut") {
            j -= 1;
        }
        if j >= 2
            && toks[j - 1].text == ":"
            && toks[j - 2].kind == TokKind::Ident
            && (j < 3 || toks[j - 3].text != ":")
        {
            names.insert(toks[j - 2].text.clone());
            continue;
        }
        // Constructor / collect position: the enclosing `let` binding.
        if let Some(name) = let_binding_before(f, i) {
            names.insert(name);
        }
    }
    names
}

/// The name bound by the `let` statement enclosing token `i`, if any.
fn let_binding_before(f: &SourceFile, i: usize) -> Option<String> {
    let toks = &f.toks;
    let mut j = i;
    while j > 0 {
        j -= 1;
        match toks[j].text.as_str() {
            ";" | "{" | "}" => return None,
            "let" => {
                let mut k = j + 1;
                if toks.get(k).is_some_and(|t| t.text == "mut") {
                    k += 1;
                }
                return toks
                    .get(k)
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone());
            }
            _ => {}
        }
    }
    None
}

/// `wall-clock`: `Instant`/`SystemTime` confined to the timing module.
pub fn wall_clock(f: &SourceFile) -> Vec<Finding> {
    if f.rel == WALL_CLOCK_SANCTUARY {
        return Vec::new();
    }
    f.toks
        .iter()
        .filter(|t| t.kind == TokKind::Ident && (t.text == "Instant" || t.text == "SystemTime"))
        .map(|t| Finding {
            file: f.rel.clone(),
            line: t.line,
            rule: WALL_CLOCK,
            message: format!(
                "`{}` outside {WALL_CLOCK_SANCTUARY} — wall-clock readings are \
                 nondeterministic; route timing through quartz_bench::timing",
                t.text
            ),
        })
        .collect()
}

/// Stdout macros that leak experiment output past the table sink.
const STDOUT_MACROS: [&str; 4] = ["println", "eprintln", "print", "eprint"];

/// Library files that *are* the sanctioned output sinks: the table
/// module (every `outln!` line funnels through its `emit_line`) and the
/// timing module (bench progress/JSON notes on stderr).
const STDOUT_SANCTUARIES: [&str; 2] = ["crates/bench/src/table.rs", "crates/bench/src/timing.rs"];

/// `stdout-discipline`: no `println!`/`eprintln!`/`print!`/`eprint!` in
/// library code.
///
/// Experiment output must flow through `quartz_bench::outln!` (and thus
/// `table::emit_line`) so there is exactly one place where simulation
/// results become bytes on stdout — the byte-identity golden checks
/// depend on that funnel. Binaries (`src/main.rs`, `src/bin/**`,
/// `examples/**`), test collateral, and the two sanctuary sinks keep
/// direct access.
pub fn stdout_discipline(f: &SourceFile) -> Vec<Finding> {
    if STDOUT_SANCTUARIES.contains(&f.rel.as_str())
        || f.rel.ends_with("src/main.rs")
        || f.rel.contains("/src/bin/")
        || f.rel.split('/').any(|seg| seg == "examples")
    {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, t) in f.toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && STDOUT_MACROS.contains(&t.text.as_str())
            && f.punct_at(i + 1, '!')
            && !f.is_test_line(t.line)
        {
            out.push(Finding {
                file: f.rel.clone(),
                line: t.line,
                rule: STDOUT_DISCIPLINE,
                message: format!(
                    "`{}!` in library code — stdout/stderr writes belong to binaries \
                     and the table/timing sinks; route experiment lines through \
                     quartz_bench::outln! or return the data to the caller",
                    t.text
                ),
            });
        }
    }
    out
}

/// `seed-discipline`: RNG constructions must flow from a seed parameter
/// or `pool::unit_seed`; literal seeds are for tests only.
pub fn seed_discipline(f: &SourceFile) -> Vec<Finding> {
    let toks = &f.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind == TokKind::Ident
            && toks[i].text == "seed_from_u64"
            && f.punct_at(i + 1, '(')
            && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Num)
            && !f.is_test_line(toks[i].line)
        {
            out.push(Finding {
                file: f.rel.clone(),
                line: toks[i].line,
                rule: SEED_DISCIPLINE,
                message: format!(
                    "RNG seeded with the literal `{}` outside tests — derive the seed \
                     from an explicit parameter or pool::unit_seed",
                    toks[i + 2].text
                ),
            });
        }
    }
    out
}

/// `crate-hygiene`: crate roots must deny missing docs and forbid
/// `unsafe`.
pub fn crate_hygiene(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    if !f.has_seq(&["#", "!", "[", "deny", "(", "missing_docs", ")", "]"]) {
        out.push(Finding {
            file: f.rel.clone(),
            line: 1,
            rule: CRATE_HYGIENE,
            message: "crate root is missing `#![deny(missing_docs)]`".to_string(),
        });
    }
    if !f.has_seq(&["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"]) {
        out.push(Finding {
            file: f.rel.clone(),
            line: 1,
            rule: CRATE_HYGIENE,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        });
    }
    out
}

/// Narrowing cast targets: assigning a wider integer into one of these
/// truncates silently.
const NARROW_TARGETS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Tokens that count as a range guard when they appear near a cast (or
/// make indexing self-documenting in panic-free modules).
const GUARD_TOKENS: [&str; 8] = [
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "assert",
    "assert_eq",
    "assert_ne",
    "try_from",
    "try_into",
];

/// How many lines above a cast a guard may sit and still count as
/// "adjacent".
const GUARD_WINDOW: usize = 16;

/// `cast-soundness`: narrowing `as` casts in non-test library code of
/// the hot crates must sit within [`GUARD_WINDOW`] lines *after* a
/// `debug_assert!`/`try_from` guard in the same function.
///
/// Bare literal operands (`7 as u8`) and parenthesized operands already
/// range-limited by a mask/`min`/`clamp`/`%` are self-guarding and
/// exempt — the rule targets PR 7-style field narrowings whose safety
/// is otherwise folklore.
pub fn cast_soundness(f: &SourceFile, m: &FileModel) -> Vec<Finding> {
    if !m.hot_crate_lib() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (item, in_test) in f.tree.fns() {
        if in_test {
            continue;
        }
        let Some(body) = item.body else { continue };
        for cast in casts_in(&f.toks, body) {
            if !NARROW_TARGETS.contains(&cast.target.as_str())
                || cast.operand_literal
                || cast.operand_masked
                || f.is_test_line(cast.line)
            {
                continue;
            }
            let guarded = f.toks[body.lo..body.hi.min(f.toks.len())].iter().any(|t| {
                t.kind == TokKind::Ident
                    && GUARD_TOKENS.contains(&t.text.as_str())
                    && t.line <= cast.line
                    && t.line + GUARD_WINDOW >= cast.line
            });
            if !guarded {
                out.push(Finding {
                    file: f.rel.clone(),
                    line: cast.line,
                    rule: CAST_SOUNDNESS,
                    message: format!(
                        "narrowing cast `as {}` in `{}` without an adjacent \
                         debug_assert!/try_from guard — state the range invariant \
                         within {GUARD_WINDOW} lines above the cast",
                        cast.target, item.name
                    ),
                });
            }
        }
    }
    out
}

/// Selection/comparator methods whose closures must not compare floats
/// with the partial operators: a NaN (or a future refactor that admits
/// one) silently flips the selection.
const COMPARATOR_METHODS: [&str; 8] = [
    "sort_by",
    "sort_unstable_by",
    "min_by",
    "max_by",
    "binary_search_by",
    "is_none_or",
    "is_some_and",
    "map_or",
];

/// `float-determinism`: the bit-identity contract's blind spots.
///
/// Three detectors, all scoped to non-test code:
/// 1. float accumulation (`+=` on a float-tracked name) inside
///    iteration over a hash container, and float reductions inside
///    `par_map` worker closures (cross-thread merge order is not a
///    sequence the unit-order contract covers);
/// 2. `partial_cmp(..).unwrap()` / `.expect(..)` comparators — use
///    `total_cmp`, which is total over NaN and bit-identical for the
///    finite values the experiments produce;
/// 3. bare `<`/`>` on float-tracked operands inside selection closures
///    (`sort_by`, `min_by`, `is_none_or`, …) — argmin/argmax tie and
///    NaN behavior must come from `total_cmp`, not `PartialOrd`.
pub fn float_determinism(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let floats = tracked_float_names(f);
    let hashes = tracked_hash_names(f);
    let toks = &f.toks;
    let file_span = Span {
        lo: 0,
        hi: toks.len(),
    };

    // Detector 2: `partial_cmp(..).unwrap()`.
    for call in method_calls_in(toks, file_span) {
        if call.name != "partial_cmp" || f.is_test_line(call.line) {
            continue;
        }
        let chained = toks.get(call.after).is_some_and(|t| t.text == ".")
            && toks
                .get(call.after + 1)
                .is_some_and(|t| t.text == "unwrap" || t.text == "expect");
        if chained {
            out.push(Finding {
                file: f.rel.clone(),
                line: call.line,
                rule: FLOAT_DETERMINISM,
                message: "`partial_cmp(..).unwrap()` comparator — NaN panics and partial \
                          order is not a sort order; use `total_cmp`"
                    .to_string(),
            });
        }
    }

    // Detector 3: partial float comparison inside selection closures.
    for call in method_calls_in(toks, file_span) {
        if !COMPARATOR_METHODS.contains(&call.name.as_str()) || f.is_test_line(call.line) {
            continue;
        }
        for i in call.args.lo..call.args.hi.min(toks.len()) {
            let Some(name) = partial_float_compare_at(toks, i, &floats) else {
                continue;
            };
            out.push(Finding {
                file: f.rel.clone(),
                line: toks[i].line,
                rule: FLOAT_DETERMINISM,
                message: format!(
                    "float `{}` compared with a partial operator inside `.{}(..)` — \
                     selection order must come from `total_cmp`, not `PartialOrd`",
                    name, call.name
                ),
            });
        }
    }

    // Detector 1a: float `+=` inside `for … in` over a hash container.
    for i in 0..toks.len() {
        if toks[i].text != "for" || f.is_test_line(toks[i].line) {
            continue;
        }
        let stop = (i + 60).min(toks.len());
        let Some(j) = (i + 1..stop).find(|&j| toks[j].text == "in" || toks[j].text == "{") else {
            continue;
        };
        if toks[j].text != "in" {
            continue;
        }
        let mut k = j + 1;
        while k < toks.len() && (toks[k].text == "&" || toks[k].text == "mut") {
            k += 1;
        }
        let over_hash = toks.get(k).is_some_and(|t| t.kind == TokKind::Ident)
            && hashes.contains(&toks[k].text)
            && f.punct_at(k + 1, '{');
        if !over_hash {
            continue;
        }
        let close = crate::syntax::body_close(toks, k + 1);
        for acc in float_accumulations(
            toks,
            Span {
                lo: k + 2,
                hi: close,
            },
            &floats,
        ) {
            out.push(Finding {
                file: f.rel.clone(),
                line: toks[acc].line,
                rule: FLOAT_DETERMINISM,
                message: format!(
                    "float accumulation into `{}` inside iteration over hash container \
                     `{}` — float addition is not associative, so hash order becomes \
                     output bits; iterate a BTree or sort first",
                    toks[acc].text, toks[k].text
                ),
            });
        }
    }

    // Detector 1b: float reductions inside `par_map` worker closures.
    for call in method_calls_in(toks, file_span) {
        if !call.name.starts_with("par_map") || f.is_test_line(call.line) {
            continue;
        }
        for acc in float_accumulations(toks, call.args, &floats) {
            out.push(Finding {
                file: f.rel.clone(),
                line: toks[acc].line,
                rule: FLOAT_DETERMINISM,
                message: format!(
                    "float accumulation into `{}` inside a `{}` closure — reduce over \
                     the returned Vec in unit order instead",
                    toks[acc].text, call.name
                ),
            });
        }
    }

    out
}

/// Token indices of names receiving a float compound assignment
/// (`name += …`, `-=`, `*=`) inside `span`, restricted to float-tracked
/// names.
fn float_accumulations(
    toks: &[crate::lexer::Tok],
    span: Span,
    floats: &BTreeSet<String>,
) -> Vec<usize> {
    let mut out = Vec::new();
    for i in span.lo..span.hi.min(toks.len()).saturating_sub(2) {
        let op = &toks[i + 1].text;
        if (op == "+" || op == "-" || op == "*")
            && toks[i + 2].text == "="
            && toks[i].kind == TokKind::Ident
            && floats.contains(&toks[i].text)
        {
            out.push(i);
        }
    }
    out
}

/// If token `i` is a partial comparison operator (`<`, `>`, `<=`, `>=`)
/// with a float-tracked identifier operand, returns that name.
fn partial_float_compare_at(
    toks: &[crate::lexer::Tok],
    i: usize,
    floats: &BTreeSet<String>,
) -> Option<String> {
    let t = &toks[i];
    if t.kind != TokKind::Punct || (t.text != "<" && t.text != ">") {
        return None;
    }
    let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
    let next = toks.get(i + 1).map(|t| t.text.as_str());
    // Not generics (`Vec<f64>`, turbofish), shifts, arrows, or `=>`.
    if matches!(
        prev,
        Some("<") | Some(">") | Some(":") | Some("-") | Some("=")
    ) || matches!(next, Some("<") | Some(">"))
    {
        return None;
    }
    let left = i
        .checked_sub(1)
        .map(|p| &toks[p])
        .filter(|t| t.kind == TokKind::Ident);
    // Skip the `=` of `<=`/`>=`, then unary `&`/`-`, to the operand.
    let mut r = i + 1;
    if toks.get(r).is_some_and(|t| t.text == "=") {
        r += 1;
    }
    while toks.get(r).is_some_and(|t| t.text == "&" || t.text == "-") {
        r += 1;
    }
    let right = toks.get(r).filter(|t| t.kind == TokKind::Ident);
    for side in [left, right].into_iter().flatten() {
        if floats.contains(&side.text) {
            // `Vec<f64>` never reaches here: `<` after an ident with a
            // type name on the right is filtered by tracking (type
            // names are not bindings).
            return Some(side.text.clone());
        }
    }
    None
}

/// Names bound or declared with an `f32`/`f64` type in this file:
/// type-position annotations (params, fields, let-with-type, including
/// through `&`, `Vec<…>`, and slice wrappers), float-literal `let`
/// initializers, and one propagation pass through `let` chains.
fn tracked_float_names(f: &SourceFile) -> BTreeSet<String> {
    let toks = &f.toks;
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Ident && (t.text == "f64" || t.text == "f32") {
            // Walk back out of wrappers: `Vec <`, `[`, `&`, `mut`.
            let mut j = i;
            loop {
                if j >= 2 && toks[j - 1].text == "<" && toks[j - 2].kind == TokKind::Ident {
                    j -= 2;
                } else if j >= 1
                    && (toks[j - 1].text == "["
                        || toks[j - 1].text == "&"
                        || toks[j - 1].text == "mut")
                {
                    j -= 1;
                } else {
                    break;
                }
            }
            if j >= 2
                && toks[j - 1].text == ":"
                && toks[j - 2].kind == TokKind::Ident
                && (j < 3 || toks[j - 3].text != ":")
            {
                names.insert(toks[j - 2].text.clone());
            }
        }
        // `let name = 0.0…`-style float-literal initializers.
        if t.kind == TokKind::Num && is_float_literal(&t.text) {
            if let Some(name) = let_binding_before(f, i) {
                names.insert(name);
            }
        }
    }
    // One propagation pass: `let derived = …tracked…;`.
    let mut derived = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && names.contains(&t.text)
            && let_binding_before(f, i).is_some_and(|n| !names.contains(&n))
        {
            if let Some(n) = let_binding_before(f, i) {
                derived.push(n);
            }
        }
    }
    names.extend(derived);
    names
}

/// Whether a `Num` token is a float literal (`1.5`, `0.0f64`, `1e9`).
fn is_float_literal(text: &str) -> bool {
    text.contains('.')
        || text.ends_with("f64")
        || text.ends_with("f32")
        || (text.contains(['e', 'E']) && !text.starts_with("0x") && !text.starts_with("0X"))
}

/// `panic-freedom`: in files opted in with `// lint:panic-free`, no
/// `unwrap`/`expect` and no unguarded indexing in non-test functions.
///
/// Indexing is exempt inside functions that state their invariant with
/// an assert-family macro (the arena's `live_bits` checks, the wheel's
/// slot asserts) — the point is that every potential panic site either
/// cannot fire or says *why* it cannot, next to the code.
pub fn panic_freedom(f: &SourceFile) -> Vec<Finding> {
    if !f.panic_free {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (item, in_test) in f.tree.fns() {
        if in_test {
            continue;
        }
        let Some(body) = item.body else { continue };
        for call in method_calls_in(&f.toks, body) {
            if (call.name == "unwrap" || call.name == "expect") && !f.is_test_line(call.line) {
                out.push(Finding {
                    file: f.rel.clone(),
                    line: call.line,
                    rule: PANIC_FREEDOM,
                    message: format!(
                        "`.{}(..)` in panic-free module (fn `{}`) — return the Option/\
                         Result, use `?`, or restructure with let-else",
                        call.name, item.name
                    ),
                });
            }
        }
        let has_assert = f.toks[body.lo..body.hi.min(f.toks.len())]
            .iter()
            .any(|t| t.kind == TokKind::Ident && GUARD_TOKENS.contains(&t.text.as_str()));
        if has_assert {
            continue;
        }
        for i in body.lo..body.hi.min(f.toks.len()) {
            if f.toks[i].text != "[" {
                continue;
            }
            let indexes = i > 0
                && (f.toks[i - 1].kind == TokKind::Ident
                    || f.toks[i - 1].text == "]"
                    || f.toks[i - 1].text == ")");
            if indexes && !f.is_test_line(f.toks[i].line) {
                out.push(Finding {
                    file: f.rel.clone(),
                    line: f.toks[i].line,
                    rule: PANIC_FREEDOM,
                    message: format!(
                        "direct indexing in panic-free fn `{}` with no stated invariant — \
                         add a debug_assert! for the bound or use `.get(..)`",
                        item.name
                    ),
                });
            }
        }
    }
    out
}

/// Allocation constructs banned in `// lint:hot` functions, as token
/// sequences (`.` `push` `(` is handled via method calls).
const HOT_ALLOC_SEQS: [(&[&str], &str); 5] = [
    (&["Vec", ":", ":", "new"], "Vec::new"),
    (&["Vec", ":", ":", "with_capacity"], "Vec::with_capacity"),
    (&["vec", "!"], "vec!"),
    (&["format", "!"], "format!"),
    (&["Box", ":", ":", "new"], "Box::new"),
];

/// Allocating method calls banned in `// lint:hot` functions.
const HOT_ALLOC_METHODS: [&str; 4] = ["push", "collect", "to_string", "to_vec"];

/// `hot-path-alloc`: functions annotated `// lint:hot` must not
/// allocate. The annotation seeds the contract on the arena recycle
/// path, the scheduler drain, and the forwarding fast path: steady-state
/// event processing touches no allocator, so throughput is a property
/// of the data layout, not of malloc.
pub fn hot_path_alloc(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (item, _) in f.tree.fns() {
        if !item.hot {
            continue;
        }
        let Some(body) = item.body else { continue };
        let hi = body.hi.min(f.toks.len());
        for i in body.lo..hi {
            for (seq, label) in HOT_ALLOC_SEQS {
                if seq.len() <= hi - i
                    && f.toks[i..i + seq.len()]
                        .iter()
                        .zip(seq)
                        .all(|(t, p)| t.text == *p)
                {
                    out.push(Finding {
                        file: f.rel.clone(),
                        line: f.toks[i].line,
                        rule: HOT_PATH_ALLOC,
                        message: format!(
                            "`{label}` in `// lint:hot` fn `{}` — hot-path functions must \
                             not allocate; preallocate in setup code or reuse scratch",
                            item.name
                        ),
                    });
                }
            }
        }
        for call in method_calls_in(&f.toks, body) {
            if HOT_ALLOC_METHODS.contains(&call.name.as_str()) {
                out.push(Finding {
                    file: f.rel.clone(),
                    line: call.line,
                    rule: HOT_PATH_ALLOC,
                    message: format!(
                        "`.{}(..)` in `// lint:hot` fn `{}` — hot-path functions must \
                         not allocate; preallocate in setup code or reuse scratch",
                        call.name, item.name
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::new(rel.to_string(), src)
    }

    // ---- hash-iter ----

    #[test]
    fn hash_iter_flags_values_iteration() {
        let f = file(
            "crates/x/src/a.rs",
            "fn f() { let mut m = HashMap::new(); m.insert(1, 2); for v in m.values() { use_(v); } }",
        );
        let hits = hash_iter(&f);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, HASH_ITER);
        assert!(hits[0].message.contains("values"));
    }

    #[test]
    fn hash_iter_flags_for_over_reference() {
        let f = file(
            "a.rs",
            "fn f(m: &HashMap<u32, u32>) { for (k, v) in &m { use_(k, v); } }",
        );
        assert_eq!(hash_iter(&f).len(), 1);
    }

    #[test]
    fn hash_iter_flags_struct_field_drain() {
        let f = file(
            "a.rs",
            "struct S { dead: HashSet<u32> }\nimpl S { fn f(&mut self) { self.dead.drain(); } }",
        );
        let hits = hash_iter(&f);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("drain"));
    }

    #[test]
    fn hash_iter_ignores_order_free_use() {
        // insert/contains/get/len never observe iteration order.
        let f = file(
            "a.rs",
            "fn f() { let mut s = HashSet::new(); s.insert(3); assert!(s.contains(&3)); s.len(); }",
        );
        assert!(hash_iter(&f).is_empty());
    }

    #[test]
    fn hash_iter_ignores_btree_iteration() {
        let f = file(
            "a.rs",
            "fn f() { let mut m = BTreeMap::new(); m.insert(1, 2); for v in m.values() { use_(v); } }",
        );
        assert!(hash_iter(&f).is_empty());
    }

    #[test]
    fn hash_iter_ignores_code_in_strings_and_docs() {
        let f = file(
            "a.rs",
            "/// let m = HashMap::new(); m.iter();\nfn f() { let s = \"HashMap.iter()\"; drop(s); }",
        );
        assert!(hash_iter(&f).is_empty());
    }

    // ---- wall-clock ----

    #[test]
    fn wall_clock_flags_instant_elsewhere() {
        let f = file(
            "crates/netsim/src/sim.rs",
            "fn f() { let t = std::time::Instant::now(); drop(t); }",
        );
        let hits = wall_clock(&f);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, WALL_CLOCK);
    }

    #[test]
    fn wall_clock_allows_the_timing_module() {
        let f = file(
            "crates/bench/src/timing.rs",
            "fn f() { let t = Instant::now(); let s = SystemTime::now(); drop((t, s)); }",
        );
        assert!(wall_clock(&f).is_empty());
    }

    // ---- stdout-discipline ----

    #[test]
    fn stdout_discipline_flags_library_println() {
        let f = file(
            "crates/netsim/src/sim.rs",
            "fn f() { println!(\"queue {}\", 3); eprintln!(\"warn\"); }",
        );
        let hits = stdout_discipline(&f);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().all(|h| h.rule == STDOUT_DISCIPLINE));
        assert!(hits[0].message.contains("println"));
        assert!(hits[1].message.contains("eprintln"));
    }

    #[test]
    fn stdout_discipline_exempts_binaries() {
        let main = file("crates/cli/src/main.rs", "fn main() { println!(\"hi\"); }");
        assert!(stdout_discipline(&main).is_empty());
        let bin = file(
            "crates/bench/src/bin/fig06_fault_tolerance.rs",
            "fn main() { print!(\"hi\"); }",
        );
        assert!(stdout_discipline(&bin).is_empty());
        let example = file("examples/quickstart.rs", "fn main() { println!(\"hi\"); }");
        assert!(stdout_discipline(&example).is_empty());
    }

    #[test]
    fn stdout_discipline_exempts_test_code() {
        let it = file(
            "crates/x/tests/it.rs",
            "fn f() { println!(\"debugging a failure\"); }",
        );
        assert!(stdout_discipline(&it).is_empty());
        let unit = file(
            "crates/x/src/a.rs",
            "fn f() {}\n#[cfg(test)]\nmod tests {\n  fn g() { println!(\"{}\", 1); }\n}",
        );
        assert!(stdout_discipline(&unit).is_empty());
    }

    #[test]
    fn stdout_discipline_allows_the_sanctioned_sinks() {
        for rel in super::STDOUT_SANCTUARIES {
            let f = file(rel, "fn f() { println!(\"line\"); eprintln!(\"note\"); }");
            assert!(stdout_discipline(&f).is_empty(), "{rel} should be exempt");
        }
    }

    #[test]
    fn stdout_discipline_ignores_quoted_and_doc_mentions() {
        let f = file(
            "crates/x/src/a.rs",
            "/// never call println! here\nfn f() { let s = \"println!(hi)\"; drop(s); }",
        );
        assert!(stdout_discipline(&f).is_empty());
    }

    // ---- seed-discipline ----

    #[test]
    fn seed_discipline_flags_literal_seed_in_src() {
        let f = file(
            "crates/x/src/a.rs",
            "fn f() { let rng = StdRng::seed_from_u64(42); drop(rng); }",
        );
        let hits = seed_discipline(&f);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("42"));
    }

    #[test]
    fn seed_discipline_allows_parameters_and_unit_seed() {
        let f = file(
            "crates/x/src/a.rs",
            "fn f(seed: u64, i: u64) {\n  let a = StdRng::seed_from_u64(seed);\n  let b = StdRng::seed_from_u64(unit_seed(seed, i));\n  drop((a, b));\n}",
        );
        assert!(seed_discipline(&f).is_empty());
    }

    #[test]
    fn seed_discipline_allows_literals_in_tests() {
        let cfg = "fn f() {}\n#[cfg(test)]\nmod tests {\n  fn g() { let r = StdRng::seed_from_u64(7); drop(r); }\n}";
        assert!(seed_discipline(&file("crates/x/src/a.rs", cfg)).is_empty());
        let it = "fn g() { let r = StdRng::seed_from_u64(7); drop(r); }";
        assert!(seed_discipline(&file("crates/x/tests/it.rs", it)).is_empty());
    }

    // ---- crate-hygiene ----

    #[test]
    fn crate_hygiene_requires_both_attributes() {
        let f = file("crates/x/src/lib.rs", "//! docs\npub fn f() {}\n");
        let hits = crate_hygiene(&f);
        assert_eq!(hits.len(), 2);
        let clean = file(
            "crates/x/src/lib.rs",
            "//! docs\n#![deny(missing_docs)]\n#![forbid(unsafe_code)]\npub fn f() {}\n",
        );
        assert!(crate_hygiene(&clean).is_empty());
    }

    // ---- cast-soundness ----

    use crate::model::Role;

    fn hot_lib() -> FileModel {
        FileModel {
            crate_dir: "crates/netsim".into(),
            crate_name: "quartz-netsim".into(),
            role: Role::Lib,
        }
    }

    #[test]
    fn cast_soundness_flags_unguarded_narrowing() {
        // The shape this rule caught for real: `self.created.len() as
        // PacketId`-style id narrowings (fixed with the guard now at
        // crates/netsim/src/arena.rs:175, and likewise sched.rs:352).
        let f = file(
            "crates/netsim/src/arena.rs",
            "fn grow(&mut self) -> u32 {\n  let id = self.created.len() as u32;\n  id\n}",
        );
        let hits = cast_soundness(&f, &hot_lib());
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, CAST_SOUNDNESS);
        assert!(hits[0].message.contains("as u32"));
    }

    #[test]
    fn cast_soundness_guard_must_be_within_window() {
        // A guard 20 lines up is documentation, not adjacency.
        let src = format!(
            "fn f(n: usize) -> u32 {{\n  debug_assert!(n < 10);\n{}  n as u32\n}}",
            "  let _pad = 0;\n".repeat(GUARD_WINDOW + 3)
        );
        let f = file("crates/netsim/src/a.rs", &src);
        assert_eq!(cast_soundness(&f, &hot_lib()).len(), 1);
    }

    #[test]
    fn cast_soundness_accepts_adjacent_guard() {
        let f = file(
            "crates/netsim/src/a.rs",
            "fn f(n: usize) -> u32 {\n  debug_assert!(n <= u32::MAX as usize);\n  n as u32\n}",
        );
        assert!(cast_soundness(&f, &hot_lib()).is_empty());
    }

    #[test]
    fn cast_soundness_exempts_self_guarding_operands() {
        // Literals and mask/min/clamp-limited operands carry their own
        // range proof.
        let f = file(
            "crates/netsim/src/a.rs",
            "fn f(x: u64) -> u8 {\n  let a = 7 as u8;\n  let b = (x & 0xff) as u8;\n  let c = (x % 251) as u8;\n  a + b + c\n}",
        );
        assert!(cast_soundness(&f, &hot_lib()).is_empty());
    }

    #[test]
    fn cast_soundness_scopes_to_hot_crate_library_code() {
        let src = "fn f(n: usize) -> u32 { n as u32 }";
        let bench = FileModel {
            crate_dir: "crates/bench".into(),
            crate_name: "quartz-bench".into(),
            role: Role::Lib,
        };
        assert!(cast_soundness(&file("crates/bench/src/a.rs", src), &bench).is_empty());
        let test_role = FileModel {
            crate_dir: "crates/netsim".into(),
            crate_name: "quartz-netsim".into(),
            role: Role::Test,
        };
        assert!(cast_soundness(&file("crates/netsim/tests/it.rs", src), &test_role).is_empty());
    }

    // ---- float-determinism ----

    #[test]
    fn float_determinism_flags_partial_cmp_unwrap_comparator() {
        let f = file(
            "crates/x/src/a.rs",
            "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }",
        );
        let hits = float_determinism(&f);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("total_cmp"));
    }

    #[test]
    fn float_determinism_flags_partial_compare_in_selection_closure() {
        // The real violation this caught: the argmin update in
        // crates/flowsim/src/waterfill.rs:138 (and the argmax twin at
        // throughput.rs:73) compared shares with bare `<` inside
        // `is_none_or`; both now go through `total_cmp`.
        let f = file(
            "crates/x/src/a.rs",
            "fn f(share: f64, best: Option<(usize, f64)>) -> bool {\n  best.is_none_or(|(_, s)| share < s)\n}",
        );
        let hits = float_determinism(&f);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("share"));
    }

    #[test]
    fn float_determinism_flags_accumulation_over_hash_iteration() {
        let f = file(
            "crates/x/src/a.rs",
            "fn f() -> f64 {\n  let mut m = HashMap::new();\n  m.insert(1, 2.0);\n  let mut total = 0.0;\n  for (_k, v) in &m { total += v; }\n  total\n}",
        );
        let hits = float_determinism(&f);
        assert!(hits.iter().any(|h| h.message.contains("total")), "{hits:?}");
    }

    #[test]
    fn float_determinism_accepts_total_cmp_selection() {
        let f = file(
            "crates/x/src/a.rs",
            "fn f(share: f64, best: Option<(usize, f64)>) -> bool {\n  best.is_none_or(|(_, s)| share.total_cmp(&s).is_lt())\n}",
        );
        assert!(float_determinism(&f).is_empty());
    }

    #[test]
    fn float_determinism_ignores_integer_selection_and_ordered_reduction() {
        let f = file(
            "crates/x/src/a.rs",
            "fn f(n: usize, best: Option<usize>, xs: &[f64]) -> f64 {\n  let keep = best.is_none_or(|b| n < b);\n  let mut total = 0.0;\n  for x in xs { total += x; }\n  if keep { total } else { 0.0 }\n}",
        );
        assert!(float_determinism(&f).is_empty());
    }

    // ---- panic-freedom ----

    #[test]
    fn panic_freedom_flags_expect_in_opted_in_module() {
        // Mirrors the scheduler's old `.expect(\"slot is live\")` far-slot
        // take (now the let-else at crates/netsim/src/sched.rs:276).
        let f = file(
            "crates/x/src/a.rs",
            "// lint:panic-free\nfn f(x: Option<u32>) -> u32 { x.expect(\"slot is live\") }",
        );
        let hits = panic_freedom(&f);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, PANIC_FREEDOM);
        assert!(hits[0].message.contains("expect"));
    }

    #[test]
    fn panic_freedom_flags_unguarded_indexing() {
        let f = file(
            "crates/x/src/a.rs",
            "// lint:panic-free\nfn g(v: &[u32], i: usize) -> u32 { v[i] }",
        );
        let hits = panic_freedom(&f);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("indexing"));
    }

    #[test]
    fn panic_freedom_is_opt_in() {
        let f = file(
            "crates/x/src/a.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }",
        );
        assert!(panic_freedom(&f).is_empty());
    }

    #[test]
    fn panic_freedom_accepts_asserted_indexing_and_test_code() {
        // A debug_assert! states the bound, making the indexing a
        // checked invariant rather than a latent panic.
        let f = file(
            "crates/x/src/a.rs",
            "// lint:panic-free\nfn g(v: &[u32], i: usize) -> u32 {\n  debug_assert!(i < v.len());\n  v[i]\n}\n#[cfg(test)]\nmod tests {\n  fn t() { Some(1).unwrap(); }\n}",
        );
        assert!(panic_freedom(&f).is_empty());
    }

    // ---- hot-path-alloc ----

    #[test]
    fn hot_path_alloc_flags_format_in_hot_fn() {
        // Mirrors the forwarding path's old per-packet metric labels
        // (`format!(\"switch.{:03}.forwarded\", ..)`); the engine now
        // names its metrics once, at export (crates/netsim/src/metrics.rs).
        let f = file(
            "crates/x/src/a.rs",
            "// lint:hot\nfn f(at: u32) -> String { format!(\"switch.forwarded\") }",
        );
        let hits = hot_path_alloc(&f);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, HOT_PATH_ALLOC);
        assert!(hits[0].message.contains("format!"));
    }

    #[test]
    fn hot_path_alloc_flags_push_and_vec_new() {
        let f = file(
            "crates/x/src/a.rs",
            "// lint:hot\nfn f(v: &mut Vec<u32>) {\n  let mut w = Vec::new();\n  w.push(1);\n  v.push(2);\n}",
        );
        let hits = hot_path_alloc(&f);
        assert_eq!(hits.len(), 3, "{hits:?}");
    }

    #[test]
    fn hot_path_alloc_only_applies_to_annotated_fns() {
        let f = file(
            "crates/x/src/a.rs",
            "fn cold(v: &mut Vec<u32>) { v.push(1); }\n// lint:hot\nfn hot(v: &mut [u32]) { v[0] = 1; }",
        );
        assert!(hot_path_alloc(&f).is_empty());
    }

    #[test]
    fn hot_path_alloc_accepts_allocation_free_bodies() {
        // Column stores, arithmetic, and calls into cold helpers (the
        // arena rewrite/grow split) are all fine.
        let f = file(
            "crates/x/src/a.rs",
            "// lint:hot\nfn rewrite(&mut self, i: usize, v: u32) {\n  debug_assert!(i < self.col.len());\n  self.col[i] = v;\n  self.schedule(v);\n}",
        );
        assert!(hot_path_alloc(&f).is_empty());
    }
}
