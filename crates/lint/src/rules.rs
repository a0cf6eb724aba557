//! The rule engine: lexical checks over one file's token stream.
//!
//! Every rule is a pattern over [`crate::lexer`] tokens plus a comment
//! discipline. Findings are suppressed by an *allow annotation* of the
//! form (the rule name in parentheses, a mandatory reason after the
//! second colon):
//!
//! ```text
//! // ron-lint: allow(map-order): merged commutatively into a BTreeMap
//! ```
//!
//! placed on the same line as the finding, in the comment block
//! immediately above it, or above the start of the enclosing statement.
//! The reason is mandatory: an allow without one is itself a finding
//! (rule `A1`). The rules:
//!
//! * **D1 `wall-clock`** — `Instant::now`, `SystemTime`,
//!   `thread::current` / `ThreadId`, and pointer-to-`usize` casts
//!   (address-as-hash) are forbidden in determinism-critical code.
//!   Timing belongs in `ron-obs` and the `benchmark/` package.
//! * **D2 `map-order`** — iterating a `HashMap`/`HashSet` leaks a
//!   nondeterministic order. Any iteration over a name bound to a hash
//!   collection in the same file is flagged unless the statement sorts
//!   (`sort*`, `BTreeMap`/`BTreeSet`) or reduces commutatively
//!   (`sum`, `count`, `min`, `max`, `len`, `all`, `any`).
//! * **S1 `safety`** — every `unsafe` token must be governed by a
//!   comment containing `SAFETY:`.
//! * **C1 `ordering`** — every `Ordering::{Relaxed, Acquire, Release,
//!   AcqRel, SeqCst}` use must be governed by a comment containing
//!   `ordering:` justifying the choice.
//! * **A1 `annotation`** — a comment that carries the ron-lint marker
//!   but does not parse as a well-formed allow with a known rule name
//!   and a non-empty reason.
//!
//! The engine is flow- and type-free by design: it trades a handful of
//! annotated false positives (documented at the site, with a reason)
//! for zero dependencies and total predictability.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Comment, Tok, TokKind};

/// Identifies one lint rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D1: wall-clock / thread-identity reads in deterministic code.
    WallClock,
    /// D2: hash-map iteration order escaping.
    MapOrder,
    /// S1: `unsafe` without a `SAFETY:` comment.
    Safety,
    /// C1: atomic `Ordering` without an `ordering:` comment.
    AtomicOrdering,
    /// P1: non-workspace, non-vendored package in `Cargo.lock`.
    Lockfile,
    /// A1: malformed ron-lint annotation.
    Annotation,
}

impl Rule {
    /// Short stable id used in reports (`D1`, `D2`, `S1`, `C1`, `P1`,
    /// `A1`).
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::WallClock => "D1",
            Rule::MapOrder => "D2",
            Rule::Safety => "S1",
            Rule::AtomicOrdering => "C1",
            Rule::Lockfile => "P1",
            Rule::Annotation => "A1",
        }
    }

    /// The name used in allow annotations: `allow(<name>)`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::MapOrder => "map-order",
            Rule::Safety => "safety",
            Rule::AtomicOrdering => "ordering",
            Rule::Lockfile => "lockfile",
            Rule::Annotation => "annotation",
        }
    }

    /// All rule names, for validating allow annotations.
    #[must_use]
    pub fn known_names() -> &'static [&'static str] {
        &[
            "wall-clock",
            "map-order",
            "safety",
            "ordering",
            "lockfile",
            "annotation",
        ]
    }
}

/// One violation: rule, site, and a human explanation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// 1-based line of the triggering token.
    pub line: u32,
    /// What went wrong and what to do about it.
    pub message: String,
}

/// Which files rule D1 (wall-clock) applies to.
#[derive(Clone, Debug)]
pub enum WallClockScope {
    /// Apply to files whose repo-relative path starts with one of these
    /// prefixes (the determinism-critical crates of a workspace).
    Prefixes(Vec<String>),
    /// Apply to every file (standalone trees, fixtures).
    All,
}

/// Per-run policy: where each rule applies.
#[derive(Clone, Debug)]
pub struct Policy {
    /// Scope of the wall-clock rule.
    pub wall_clock: WallClockScope,
}

impl Policy {
    /// The policy for this workspace: every crate except `ron-obs` is
    /// determinism-critical (trace fingerprints, registry drains, repair
    /// plans and the paper tables `ron-bench` prints must be
    /// byte-identical across reruns and `RON_THREADS`); timing belongs
    /// in ron-obs and the `benchmark/` package.
    #[must_use]
    pub fn workspace() -> Self {
        let crates = [
            "core",
            "graph",
            "metric",
            "measure",
            "nets",
            "labels",
            "routing",
            "smallworld",
            "location",
            "sim",
            "bench",
            "lint",
        ];
        let mut prefixes: Vec<String> = crates.iter().map(|c| format!("crates/{c}/")).collect();
        prefixes.push(String::from("src/"));
        Policy {
            wall_clock: WallClockScope::Prefixes(prefixes),
        }
    }

    /// A policy that applies every rule to every file.
    #[must_use]
    pub fn strict() -> Self {
        Policy {
            wall_clock: WallClockScope::All,
        }
    }

    fn wall_clock_applies(&self, path: &str) -> bool {
        match &self.wall_clock {
            WallClockScope::All => true,
            WallClockScope::Prefixes(ps) => ps.iter().any(|p| path.starts_with(p.as_str())),
        }
    }
}

/// A parsed, well-formed allow annotation.
#[derive(Clone, Debug)]
struct Allow {
    rule_name: String,
}

/// Parses an allow annotation — `allow(<name>): <reason>` after the
/// ron-lint marker — out of a comment body. Returns `Ok(None)` when the
/// comment does not carry the marker at all, `Err(msg)` when it does
/// but is malformed.
fn parse_allow(text: &str) -> Result<Option<Allow>, String> {
    let Some(pos) = text.find("ron-lint:") else {
        return Ok(None);
    };
    let rest = text[pos + "ron-lint:".len()..].trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Err(String::from("expected `ron-lint: allow(<rule>): <reason>`"));
    };
    let Some(close) = rest.find(')') else {
        return Err(String::from("unclosed `allow(` in ron-lint annotation"));
    };
    let name = rest[..close].trim();
    if !Rule::known_names().contains(&name) {
        return Err(format!(
            "unknown rule `{name}` in allow (known: {})",
            Rule::known_names().join(", ")
        ));
    }
    let after = rest[close + 1..].trim_start();
    let Some(reason) = after.strip_prefix(':') else {
        return Err(String::from(
            "allow needs a reason: `ron-lint: allow(<rule>): <reason>`",
        ));
    };
    if reason.trim().is_empty() {
        return Err(String::from(
            "allow reason must not be empty: say why the site is sound",
        ));
    }
    Ok(Some(Allow {
        rule_name: name.to_string(),
    }))
}

/// Everything the rules need to ask about lines and comments.
struct FileCtx<'a> {
    path: &'a str,
    toks: &'a [Tok],
    comments: &'a [Comment],
    /// First code-token index per line, for attribute detection.
    first_tok_on_line: BTreeMap<u32, usize>,
    /// Comment indices covering each line.
    comments_on_line: BTreeMap<u32, Vec<usize>>,
    /// Lines with at least one code token.
    code_lines: BTreeSet<u32>,
}

impl<'a> FileCtx<'a> {
    fn new(path: &'a str, toks: &'a [Tok], comments: &'a [Comment]) -> Self {
        let mut first_tok_on_line = BTreeMap::new();
        let mut code_lines = BTreeSet::new();
        for (i, t) in toks.iter().enumerate() {
            first_tok_on_line.entry(t.line).or_insert(i);
            code_lines.insert(t.line);
        }
        let mut comments_on_line: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, c) in comments.iter().enumerate() {
            for l in c.line..=c.end_line {
                comments_on_line.entry(l).or_default().push(i);
            }
        }
        FileCtx {
            path,
            toks,
            comments,
            first_tok_on_line,
            comments_on_line,
            code_lines,
        }
    }

    /// True if the first code token on `line` is `#` (an attribute).
    fn attribute_only(&self, line: u32) -> bool {
        match self.first_tok_on_line.get(&line) {
            Some(&i) => self.toks[i].kind == TokKind::Punct && self.toks[i].text == "#",
            None => false,
        }
    }

    /// Comment indices governing `line`: comments on the line itself
    /// plus the contiguous block of comment / attribute lines directly
    /// above it. A blank or ordinary code line ends the block.
    fn governing_comments(&self, line: u32) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .comments_on_line
            .get(&line)
            .cloned()
            .unwrap_or_default();
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            if let Some(ids) = self.comments_on_line.get(&l) {
                out.extend(ids.iter().copied());
                // A block comment covers several lines; jump above it.
                let top = ids
                    .iter()
                    .map(|&i| self.comments[i].line)
                    .min()
                    .unwrap_or(l);
                l = top.saturating_sub(1);
                continue;
            }
            if self.code_lines.contains(&l) && self.attribute_only(l) {
                l -= 1;
                continue;
            }
            break;
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The line the statement enclosing token `i` starts on: walk back
    /// to the nearest `;`, `{` or `}` and take the next token's line.
    fn stmt_start_line(&self, i: usize) -> u32 {
        let mut j = i;
        while j > 0 {
            let t = &self.toks[j - 1];
            if t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
                break;
            }
            j -= 1;
        }
        self.toks[j].line
    }

    /// True if any comment governing `line` (or the enclosing
    /// statement's first line) contains `marker`.
    fn governed_by_marker(&self, tok_idx: usize, marker: &str) -> bool {
        let line = self.toks[tok_idx].line;
        let stmt = self.stmt_start_line(tok_idx);
        let mut ids = self.governing_comments(line);
        if stmt != line {
            ids.extend(self.governing_comments(stmt));
        }
        ids.iter().any(|&i| self.comments[i].text.contains(marker))
    }

    /// True if a well-formed allow for `rule` governs token `i`.
    fn allowed(&self, tok_idx: usize, rule: Rule) -> bool {
        let line = self.toks[tok_idx].line;
        let stmt = self.stmt_start_line(tok_idx);
        let mut ids = self.governing_comments(line);
        if stmt != line {
            ids.extend(self.governing_comments(stmt));
        }
        ids.iter().any(|&i| {
            matches!(
                parse_allow(&self.comments[i].text),
                Ok(Some(ref a)) if a.rule_name == rule.name()
            )
        })
    }

    fn finding(&self, rule: Rule, line: u32, message: String) -> Finding {
        Finding {
            rule,
            path: self.path.to_string(),
            line,
            message,
        }
    }
}

/// Matches `toks[i..]` against a sequence of expected texts, where
/// idents/numbers match by text and single-char entries match puncts.
fn seq(toks: &[Tok], i: usize, pat: &[&str]) -> bool {
    if i + pat.len() > toks.len() {
        return false;
    }
    pat.iter()
        .enumerate()
        .all(|(k, want)| toks[i + k].text == *want)
}

/// Analyzes one file's source, returning findings sorted by line.
/// Hash-collection names for rule D2 are harvested from this file only;
/// use [`analyze_source_scoped`] to widen the name scope to a crate.
#[must_use]
pub fn analyze_source(path: &str, src: &str, policy: &Policy) -> Vec<Finding> {
    analyze_source_scoped(path, src, policy, &BTreeSet::new())
}

/// Analyzes one file with extra hash-collection names harvested
/// elsewhere (the other files of the same crate): a `HashMap` field
/// declared in one module and iterated in a sibling module is the
/// common real leak, so the tree walker feeds every file the union of
/// its crate's names.
#[must_use]
pub fn analyze_source_scoped(
    path: &str,
    src: &str,
    policy: &Policy,
    extra_hash_names: &BTreeSet<String>,
) -> Vec<Finding> {
    let lexed = lex(src);
    let ctx = FileCtx::new(path, &lexed.toks, &lexed.comments);
    let mut findings = Vec::new();

    check_annotations(&ctx, &mut findings);
    if policy.wall_clock_applies(path) {
        check_wall_clock(&ctx, &mut findings);
    }
    check_map_order(&ctx, extra_hash_names, &mut findings);
    check_safety(&ctx, &mut findings);
    check_atomic_ordering(&ctx, &mut findings);

    findings.sort_by_key(|a| (a.line, a.rule));
    findings.dedup();
    findings
}

/// Harvests the names this file binds to `HashMap`/`HashSet` (rule D2's
/// name scope), so a tree walker can union them across a crate.
#[must_use]
pub fn harvest_hash_names(src: &str) -> BTreeSet<String> {
    let lexed = lex(src);
    harvest(&lexed.toks)
        .into_iter()
        .map(str::to_string)
        .collect()
}

/// A1: every comment carrying the ron-lint marker must be a
/// well-formed allow.
fn check_annotations(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for c in ctx.comments {
        if let Err(msg) = parse_allow(&c.text) {
            findings.push(ctx.finding(Rule::Annotation, c.line, msg));
        }
    }
}

/// D1: wall-clock, thread-identity, and address-as-hash reads.
fn check_wall_clock(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    let toks = ctx.toks;
    // `as *const` / `as *mut` marks a pointer cast in the current
    // statement; a later `as usize` in the same statement is then an
    // address observed as an integer (address-as-hash).
    let mut ptr_cast_in_stmt = false;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
            ptr_cast_in_stmt = false;
            continue;
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        let mut hit: Option<&str> = None;
        if seq(toks, i, &["Instant", ":", ":", "now"]) {
            hit = Some("`Instant::now()` in determinism-critical code; timing belongs in ron-obs / the benchmark package");
        } else if t.text == "SystemTime" {
            hit = Some("`SystemTime` in determinism-critical code; wall-clock time must not reach deterministic paths");
        } else if seq(toks, i, &["thread", ":", ":", "current"]) || t.text == "ThreadId" {
            hit = Some("thread identity in determinism-critical code; results must not depend on which thread ran");
        } else if seq(toks, i, &["as", "*", "const"]) || seq(toks, i, &["as", "*", "mut"]) {
            ptr_cast_in_stmt = true;
        } else if ptr_cast_in_stmt && seq(toks, i, &["as", "usize"]) {
            hit = Some(
                "pointer cast observed as `usize` (address-as-hash); addresses vary across runs",
            );
            ptr_cast_in_stmt = false;
        }
        if let Some(msg) = hit {
            if !ctx.allowed(i, Rule::WallClock) {
                findings.push(ctx.finding(Rule::WallClock, t.line, String::from(msg)));
            }
        }
    }
}

/// Methods whose call on a hash collection iterates it.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Idents that make an iteration order-insensitive: explicit sorts,
/// sorted destinations, and commutative reductions.
fn order_insensitive(text: &str) -> bool {
    text.starts_with("sort")
        || text.starts_with("BTree")
        || matches!(text, "sum" | "count" | "min" | "max" | "all" | "any")
}

/// Harvests names bound to hash collections — field or let ascriptions
/// `name: [&][mut] [std::collections::] Hash{Map,Set}` and constructor
/// bindings `let [mut] name = Hash{Map,Set}::...`.
fn harvest(toks: &[Tok]) -> BTreeSet<&str> {
    let mut hash_names: BTreeSet<&str> = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        if matches!(toks[i].text.as_str(), "HashMap" | "HashSet") {
            // Ascription: walk back over `: & mut std :: collections ::`.
            let mut j = i;
            while j > 0 {
                let p = &toks[j - 1];
                let skippable = (p.kind == TokKind::Punct && matches!(p.text.as_str(), ":" | "&"))
                    || (p.kind == TokKind::Ident
                        && matches!(p.text.as_str(), "mut" | "std" | "collections"));
                if !skippable {
                    break;
                }
                j -= 1;
            }
            if j > 0 && j < i && toks[j].text == ":" && toks[j - 1].kind == TokKind::Ident {
                hash_names.insert(toks[j - 1].text.as_str());
            }
            // Constructor: `let [mut] name ... = HashMap::new()` — find
            // the `let` at the head of the statement.
            if seq(toks, i + 1, &[":", ":"]) {
                let mut k = i;
                while k > 0 {
                    let p = &toks[k - 1];
                    if p.kind == TokKind::Punct && matches!(p.text.as_str(), ";" | "{" | "}") {
                        break;
                    }
                    k -= 1;
                }
                if toks[k].text == "let" {
                    let mut name_idx = k + 1;
                    if name_idx < toks.len() && toks[name_idx].text == "mut" {
                        name_idx += 1;
                    }
                    if name_idx < i && toks[name_idx].kind == TokKind::Ident {
                        hash_names.insert(toks[name_idx].text.as_str());
                    }
                }
            }
        }
    }
    hash_names
}

/// D2: iteration over names bound to `HashMap`/`HashSet` in this file
/// or (via `extra`) elsewhere in the same crate.
fn check_map_order(ctx: &FileCtx<'_>, extra: &BTreeSet<String>, findings: &mut Vec<Finding>) {
    let toks = ctx.toks;
    let mut hash_names = harvest(toks);
    hash_names.extend(extra.iter().map(String::as_str));
    if hash_names.is_empty() {
        return;
    }

    // Pass 2a: method-call iteration `name.iter()` (optionally through
    // `.clone()`), suppressed when the statement sorts or reduces.
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || !hash_names.contains(toks[i].text.as_str()) {
            continue;
        }
        let mut m = i + 1; // index of `.` before the method
        if seq(toks, m, &[".", "clone", "(", ")"]) {
            m += 4;
        }
        if !(m < toks.len() && toks[m].text == ".") {
            continue;
        }
        let Some(method) = toks.get(m + 1) else {
            continue;
        };
        if method.kind != TokKind::Ident || !ITER_METHODS.contains(&method.text.as_str()) {
            continue;
        }
        if stmt_is_order_insensitive(toks, i) {
            continue;
        }
        if !ctx.allowed(i, Rule::MapOrder) {
            findings.push(ctx.finding(
                Rule::MapOrder,
                toks[i].line,
                format!(
                    "`{}.{}()` iterates a hash collection in nondeterministic order; sort, use a BTree type, or annotate `// ron-lint: allow(map-order): <reason>`",
                    toks[i].text, method.text
                ),
            ));
        }
    }

    // Pass 2b: `for ... in <expr> {` headers naming a hash collection
    // directly (not through an order-safe method call).
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text == "for" {
            if let Some(f) = for_header_violation(ctx, &hash_names, i) {
                if !ctx.allowed(f.0, Rule::MapOrder) {
                    findings.push(ctx.finding(
                        Rule::MapOrder,
                        toks[f.0].line,
                        format!(
                            "`for` over hash collection `{}` observes nondeterministic order; sort first or annotate `// ron-lint: allow(map-order): <reason>`",
                            f.1
                        ),
                    ));
                }
            }
        }
        i += 1;
    }
}

/// True when the statement containing token `i` sorts its output or
/// reduces it commutatively.
fn stmt_is_order_insensitive(toks: &[Tok], i: usize) -> bool {
    // Statement bounds: back to the previous `;`/`{`/`}`, forward to
    // the next `;` (or `{` opening a block, for loop headers).
    let mut start = i;
    while start > 0 {
        let p = &toks[start - 1];
        if p.kind == TokKind::Punct && matches!(p.text.as_str(), ";" | "{" | "}") {
            break;
        }
        start -= 1;
    }
    let mut end = i;
    let mut depth = 0i32;
    while end < toks.len() {
        let t = &toks[end];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" if depth <= 0 => break,
                "{" if depth <= 0 => break,
                _ => {}
            }
        }
        end += 1;
    }
    toks[start..end]
        .iter()
        .any(|t| t.kind == TokKind::Ident && order_insensitive(&t.text))
}

/// Examines a `for ... in <expr> {` header starting at token `i`
/// (`for`). Returns `(token_index, name)` of a direct hash-collection
/// iteration in the expr, if any.
fn for_header_violation<'a>(
    ctx: &FileCtx<'a>,
    hash_names: &BTreeSet<&str>,
    i: usize,
) -> Option<(usize, &'a str)> {
    let toks = ctx.toks;
    // Find `in` at depth 0, then scan to the opening `{` at depth 0.
    let mut j = i + 1;
    let mut depth = 0i32;
    let mut in_idx = None;
    while j < toks.len() {
        let t = &toks[j];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth <= 0 => return None, // `for` without `in`?
                _ => {}
            }
        } else if t.kind == TokKind::Ident && t.text == "in" && depth <= 0 {
            in_idx = Some(j);
            break;
        }
        j += 1;
    }
    let start = in_idx? + 1;
    let mut end = start;
    depth = 0;
    while end < toks.len() {
        let t = &toks[end];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth <= 0 => break,
                _ => {}
            }
        }
        end += 1;
    }
    let header = &toks[start..end];
    if header
        .iter()
        .any(|t| t.kind == TokKind::Ident && order_insensitive(&t.text))
    {
        return None;
    }
    for (k, t) in header.iter().enumerate() {
        if t.kind != TokKind::Ident || !hash_names.contains(t.text.as_str()) {
            continue;
        }
        // `name.method(...)`: iteration only if the method iterates —
        // `map.get(&k)` yields a value, not the map's order. Pass 2a
        // already reports `name.iter()`-style calls; skip them here to
        // avoid double findings.
        if header.get(k + 1).is_some_and(|n| n.text == ".") {
            continue;
        }
        return Some((start + k, &toks[start + k].text));
    }
    None
}

/// S1: every `unsafe` must be governed by a `SAFETY:` comment.
fn check_safety(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        if ctx.governed_by_marker(i, "SAFETY:") || ctx.allowed(i, Rule::Safety) {
            continue;
        }
        findings.push(ctx.finding(
            Rule::Safety,
            t.line,
            String::from(
                "`unsafe` without a `// SAFETY:` comment explaining why the invariants hold",
            ),
        ));
    }
}

/// C1: every explicit atomic ordering must be justified.
fn check_atomic_ordering(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || toks[i].text != "Ordering" {
            continue;
        }
        if !seq(toks, i + 1, &[":", ":"]) {
            continue;
        }
        let Some(which) = toks.get(i + 3) else {
            continue;
        };
        if !matches!(
            which.text.as_str(),
            "Relaxed" | "Acquire" | "Release" | "AcqRel" | "SeqCst"
        ) {
            continue;
        }
        if ctx.governed_by_marker(i, "ordering:") || ctx.allowed(i, Rule::AtomicOrdering) {
            continue;
        }
        findings.push(ctx.finding(
            Rule::AtomicOrdering,
            toks[i].line,
            format!(
                "`Ordering::{}` without a `// ordering:` comment justifying the memory ordering",
                which.text
            ),
        ));
    }
}
