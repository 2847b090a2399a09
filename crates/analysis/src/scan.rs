//! The rule engine: walks one file's token stream and reports violations.
//!
//! Scope tracking is deliberately lightweight — a brace-depth stack whose
//! entries remember whether they were opened by a `fn` (and if so whether
//! the function is marked hot or is a test), by a `struct` (and whether its
//! name marks it as a stats/accounting struct), or by a `#[cfg(test)]`
//! module. That is enough context for every rule; no expression parsing is
//! attempted.

use crate::lexer::{lex, Tok, Token};
use std::collections::BTreeSet;

/// Every lint rule the analyzer knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `HashMap`/`HashSet` in a result-affecting crate: iteration order is
    /// seeded per process, so any iteration silently breaks cross-process
    /// reproducibility. Use `BTreeMap`/`BTreeSet` or sorted access.
    HashIter,
    /// `Instant`/`SystemTime` outside the bench crate: wall-clock reads make
    /// results depend on the machine, not the seed.
    WallClock,
    /// Unseeded RNG construction (`thread_rng`, `from_entropy`, `OsRng`):
    /// every random stream must derive from an explicit seed.
    UnseededRng,
    /// `f32`/`f64` field in a `*Stats` struct: accounting must stay in exact
    /// integers so engine equivalence can compare with `==`; floats belong
    /// in derived accessors only.
    FloatStatsField,
    /// `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` in
    /// a hot-path module.
    PanicPath,
    /// Direct `container[index]` indexing in a hot-path module (a hidden
    /// panic path).
    PanicIndex,
    /// Allocation (`Vec::new`, `vec![]`, `Box::new`, `.clone()`,
    /// `.collect()`) inside a function annotated hot.
    HotAlloc,
    /// `unsafe` without a `SAFETY:` comment within the three preceding
    /// lines.
    UnsafeNoSafety,
    /// A malformed lint directive: `allow(...)` without a `-- reason`, or
    /// naming an unknown rule. Never suppressible.
    LintMalformed,
}

impl Rule {
    /// All rules, in report order.
    pub const ALL: [Rule; 9] = [
        Rule::HashIter,
        Rule::WallClock,
        Rule::UnseededRng,
        Rule::FloatStatsField,
        Rule::PanicPath,
        Rule::PanicIndex,
        Rule::HotAlloc,
        Rule::UnsafeNoSafety,
        Rule::LintMalformed,
    ];

    /// Stable machine-readable identifier, used in directives, JSON output
    /// and the baseline file.
    pub fn id(self) -> &'static str {
        match self {
            Rule::HashIter => "hash-iter",
            Rule::WallClock => "wall-clock",
            Rule::UnseededRng => "unseeded-rng",
            Rule::FloatStatsField => "float-stats-field",
            Rule::PanicPath => "panic-path",
            Rule::PanicIndex => "panic-index",
            Rule::HotAlloc => "hot-alloc",
            Rule::UnsafeNoSafety => "unsafe-no-safety",
            Rule::LintMalformed => "lint-malformed",
        }
    }

    /// Parses a rule identifier as written in an allow directive.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }

    /// One-line remediation hint shown in human output.
    pub fn help(self) -> &'static str {
        match self {
            Rule::HashIter => {
                "use BTreeMap/BTreeSet, or allow(hash-iter) with proof the map is never iterated"
            }
            Rule::WallClock => "thread simulated cycles through instead of reading the clock",
            Rule::UnseededRng => "construct RNGs with seed_from_u64 from an explicit seed",
            Rule::FloatStatsField => "store exact integers; compute floats in accessor methods",
            Rule::PanicPath => {
                "handle the failure arm (SimError), or allow(panic-path) with the invariant"
            }
            Rule::PanicIndex => {
                "use get()/get_mut() or iterators, or allow(panic-index) with the bound proof"
            }
            Rule::HotAlloc => {
                "reuse a preallocated scratch buffer, or allow(hot-alloc) with why it is cold"
            }
            Rule::UnsafeNoSafety => "precede the unsafe block with a `SAFETY:` comment",
            Rule::LintMalformed => "directives need a reason: allow(<rule>) -- <why this is sound>",
        }
    }
}

/// One finding: a rule violated at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path relative to the analyzed root, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The violated rule.
    pub rule: Rule,
    /// Human message naming the offending construct.
    pub message: String,
    /// The trimmed source line, for reports and fingerprinting.
    pub excerpt: String,
    /// Content-based identity used by the baseline ratchet; stable across
    /// line-number drift. Filled by [`crate::fingerprint`].
    pub fingerprint: String,
}

/// Per-file policy, derived from [`crate::Config`] before
/// scanning.
#[derive(Debug, Clone, Copy, Default)]
pub struct FilePolicy {
    /// File belongs to a result-affecting crate (hash-iter applies).
    pub result_affecting: bool,
    /// File is exempt from the wall-clock rule (bench harness).
    pub wall_clock_exempt: bool,
    /// File is one of the hot-path modules (panic rules apply).
    pub hot_path: bool,
}

/// RNG constructors that bypass explicit seeding.
const UNSEEDED_RNG: [&str; 5] = [
    "thread_rng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
    "EntropyRng",
];

/// Keywords that may legitimately be followed by `[` (slice patterns, array
/// literals in expression position) and therefore do not indicate indexing.
const NOT_INDEX_BEFORE: [&str; 18] = [
    "let", "in", "return", "mut", "ref", "move", "box", "match", "if", "while", "else", "do",
    "yield", "await", "as", "unsafe", "loop", "for",
];

#[derive(Debug)]
struct AllowMark {
    line: u32,
    rules: Vec<String>,
    has_reason: bool,
}

#[derive(Debug, Default)]
struct Directives {
    allows: Vec<AllowMark>,
    hot_lines: Vec<u32>,
    /// Lines covered by a comment containing `SAFETY:`.
    safety_lines: BTreeSet<u32>,
    malformed: Vec<(u32, String)>,
}

/// Strips doc-comment continuation markers so `/// text` and `//! text`
/// yield `text`, then trims. A directive must *start* the comment, so prose
/// that merely mentions the marker does not trigger.
fn comment_body(text: &str) -> &str {
    text.trim_start_matches(['/', '!']).trim()
}

fn parse_directives(comments: &[crate::lexer::Comment]) -> Directives {
    let mut d = Directives::default();
    for c in comments {
        if c.text.contains("SAFETY:") {
            for line in c.line..=c.end_line {
                d.safety_lines.insert(line);
            }
        }
        let body = comment_body(&c.text);
        let Some(rest) = body.strip_prefix("taqos-lint:") else {
            continue;
        };
        let rest = rest.trim();
        if rest == "hot" {
            d.hot_lines.push(c.line);
            continue;
        }
        let Some((rule_list, tail)) = rest.strip_prefix("allow(").and_then(|r| {
            let close = r.find(')')?;
            Some((&r[..close], r[close + 1..].trim()))
        }) else {
            d.malformed
                .push((c.line, format!("unrecognized directive `{rest}`")));
            continue;
        };
        let rules: Vec<String> = rule_list
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let has_reason = tail
            .strip_prefix("--")
            .is_some_and(|reason| !reason.trim().is_empty());
        if rules.is_empty() {
            d.malformed
                .push((c.line, "allow() names no rules".to_string()));
            continue;
        }
        for r in &rules {
            if Rule::from_id(r).is_none() {
                d.malformed.push((c.line, format!("unknown rule `{r}`")));
            }
        }
        if !has_reason {
            d.malformed.push((
                c.line,
                format!("allow({rule_list}) lacks a `-- <reason>` justification"),
            ));
        }
        d.allows.push(AllowMark {
            line: c.line,
            rules,
            has_reason,
        });
    }
    d
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScopeKind {
    Block,
    Fn { hot: bool, test: bool },
    Struct { stats: bool },
    TestMod,
}

#[derive(Debug)]
enum Pending {
    Mod { test: bool },
    Fn { hot: bool, test: bool },
    Struct { stats: bool },
}

struct Scanner<'a> {
    file: &'a str,
    policy: FilePolicy,
    lines: Vec<&'a str>,
    directives: Directives,
    scopes: Vec<ScopeKind>,
    pending: Option<Pending>,
    /// Set when an attribute contained `test` (covers `#[test]`,
    /// `#[cfg(test)]`, `#[cfg(all(test, …))]`); consumed by the next item.
    pending_test_attr: bool,
    /// Bracket depth of the attribute currently being skipped, if any.
    attr_depth: u32,
    in_use: bool,
    out: Vec<Violation>,
    /// (rule, line) pairs already reported, to collapse duplicates such as
    /// two `HashMap` mentions in one declaration.
    seen: BTreeSet<(Rule, u32)>,
}

/// Scans one file and returns its violations (fingerprints unset).
pub fn scan_file(file: &str, source: &str, policy: FilePolicy) -> Vec<Violation> {
    let lexed = lex(source);
    let directives = parse_directives(&lexed.comments);
    let mut scanner = Scanner {
        file,
        policy,
        lines: source.lines().collect(),
        directives,
        scopes: Vec::new(),
        pending: None,
        pending_test_attr: false,
        attr_depth: 0,
        in_use: false,
        out: Vec::new(),
        seen: BTreeSet::new(),
    };
    scanner.run(&lexed.tokens);
    scanner.finish()
}

/// Whether the tokens after an attribute's `[` spell exactly `cfg(test)]`.
fn spells_cfg_test(rest: &[Token]) -> bool {
    let ident = |t: &Token, name: &str| matches!(&t.tok, Tok::Ident(id) if id == name);
    let punct = |t: &Token, p: u8| t.tok == Tok::Punct(p);
    matches!(rest, [cfg, open, test, close, end, ..]
        if ident(cfg, "cfg")
            && punct(open, b'(')
            && ident(test, "test")
            && punct(close, b')')
            && punct(end, b']'))
}

impl Scanner<'_> {
    fn in_test(&self) -> bool {
        self.scopes.iter().any(|s| {
            matches!(s, ScopeKind::TestMod) || matches!(s, ScopeKind::Fn { test: true, .. })
        })
    }

    fn in_hot_fn(&self) -> bool {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| match s {
                ScopeKind::Fn { hot, .. } => Some(*hot),
                _ => None,
            })
            .unwrap_or(false)
    }

    fn in_stats_struct(&self) -> bool {
        matches!(self.scopes.last(), Some(ScopeKind::Struct { stats: true }))
    }

    fn excerpt(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    fn report(&mut self, rule: Rule, line: u32, message: String) {
        if !self.seen.insert((rule, line)) {
            return;
        }
        self.out.push(Violation {
            file: self.file.to_string(),
            line,
            rule,
            message,
            excerpt: self.excerpt(line),
            fingerprint: String::new(),
        });
    }

    /// A hot marker within the six lines above (or on) `line` marks the
    /// next function as hot; the window tolerates an attribute block or doc
    /// comment between the marker and the `fn` keyword.
    fn hot_marked(&self, line: u32) -> bool {
        self.directives
            .hot_lines
            .iter()
            .any(|&h| h <= line && line - h <= 6)
    }

    fn run(&mut self, tokens: &[Token]) {
        for i in 0..tokens.len() {
            let t = &tokens[i];
            let prev = i.checked_sub(1).map(|p| &tokens[p].tok);
            // Attribute skipping: `#[…]` and `#![…]` contents are consumed
            // here, looking only for the `test` marker.
            if self.attr_depth > 0 {
                match &t.tok {
                    Tok::Punct(b'[') => self.attr_depth += 1,
                    Tok::Punct(b']') => self.attr_depth -= 1,
                    Tok::Ident(name) if name == "test" => self.pending_test_attr = true,
                    _ => {}
                }
                continue;
            }
            if t.tok == Tok::Punct(b'[') {
                let inner = matches!(prev, Some(Tok::Punct(b'!')))
                    && matches!(
                        i.checked_sub(2).map(|p| &tokens[p].tok),
                        Some(Tok::Punct(b'#'))
                    );
                if inner || matches!(prev, Some(Tok::Punct(b'#'))) {
                    // An inner attribute gates the module it stands in:
                    // `#![cfg(test)]` at the top of a file (an out-of-line
                    // `mod tests;`) makes the whole file test code. Exactly
                    // that spelling: `cfg(not(test))` or `cfg_attr(test, ..)`
                    // mention `test` and gate nothing out.
                    if inner && self.scopes.is_empty() && spells_cfg_test(&tokens[i + 1..]) {
                        self.scopes.push(ScopeKind::TestMod);
                    }
                    self.attr_depth = 1;
                    continue;
                }
            }
            match &t.tok {
                Tok::Punct(b'{') => {
                    let kind = match self.pending.take() {
                        Some(Pending::Mod { test: true }) => ScopeKind::TestMod,
                        Some(Pending::Fn { hot, test }) => ScopeKind::Fn { hot, test },
                        Some(Pending::Struct { stats }) => ScopeKind::Struct { stats },
                        Some(Pending::Mod { test: false }) | None => ScopeKind::Block,
                    };
                    self.scopes.push(kind);
                }
                Tok::Punct(b'}') => {
                    self.scopes.pop();
                }
                Tok::Punct(b';') => {
                    self.pending = None;
                    self.in_use = false;
                }
                Tok::Punct(b'[') if !self.in_use => self.check_index(prev, t.line),
                Tok::Ident(_) if !self.in_use => self.check_ident(tokens, i),
                _ => {}
            }
        }
    }

    fn check_index(&mut self, prev: Option<&Tok>, line: u32) {
        if !self.policy.hot_path || self.in_test() {
            return;
        }
        let indexes = match prev {
            Some(Tok::Ident(id)) => !NOT_INDEX_BEFORE.contains(&id.as_str()),
            Some(Tok::Punct(b')' | b']' | b'?')) => true,
            _ => false,
        };
        if indexes {
            self.report(
                Rule::PanicIndex,
                line,
                "direct indexing on the hot path panics on out-of-bounds".to_string(),
            );
        }
    }

    fn check_ident(&mut self, tokens: &[Token], i: usize) {
        let line = tokens[i].line;
        let Tok::Ident(name) = &tokens[i].tok else {
            return;
        };
        let name = name.as_str();
        let at = |j: usize| tokens.get(j).map(|t| &t.tok);
        let prev = i.checked_sub(1).and_then(&at);
        let next = at(i + 1);
        let after_dot = matches!(prev, Some(Tok::Punct(b'.')));
        let called = matches!(next, Some(Tok::Punct(b'(')));
        let is_macro = matches!(next, Some(Tok::Punct(b'!')));
        // `Vec::new` / `Box::new`: ident followed by `::` then `new(`.
        let static_new = |ctor: &str| {
            name == ctor
                && matches!(next, Some(Tok::Punct(b':')))
                && matches!(at(i + 2), Some(Tok::Punct(b':')))
                && matches!(at(i + 3), Some(Tok::Ident(m)) if m == "new")
                && matches!(at(i + 4), Some(Tok::Punct(b'(')))
        };
        match name {
            "use" if !after_dot => {
                self.in_use = true;
                return;
            }
            "mod" => {
                self.pending = Some(Pending::Mod {
                    test: std::mem::take(&mut self.pending_test_attr),
                });
                return;
            }
            "fn" => {
                let test = std::mem::take(&mut self.pending_test_attr);
                self.pending = Some(Pending::Fn {
                    hot: self.hot_marked(line),
                    test,
                });
                return;
            }
            "struct" => {
                let stats = matches!(next, Some(Tok::Ident(n)) if n.ends_with("Stats"));
                self.pending = Some(Pending::Struct { stats });
                self.pending_test_attr = false;
                return;
            }
            _ => {}
        }
        if name == "unsafe" {
            let covered =
                (line.saturating_sub(3)..=line).any(|l| self.directives.safety_lines.contains(&l));
            if !covered {
                self.report(
                    Rule::UnsafeNoSafety,
                    line,
                    "`unsafe` without a `SAFETY:` comment on the preceding lines".to_string(),
                );
            }
            return;
        }
        if self.in_test() {
            return;
        }
        match name {
            "HashMap" | "HashSet" if self.policy.result_affecting => {
                self.report(
                    Rule::HashIter,
                    line,
                    format!("`{name}` in a result-affecting crate has seeded iteration order"),
                );
            }
            "Instant" | "SystemTime" if !self.policy.wall_clock_exempt => {
                self.report(
                    Rule::WallClock,
                    line,
                    format!("`{name}` reads the wall clock; results must depend only on the seed"),
                );
            }
            _ if UNSEEDED_RNG.contains(&name) => {
                self.report(
                    Rule::UnseededRng,
                    line,
                    format!("`{name}` constructs an unseeded RNG"),
                );
            }
            "f32" | "f64" if self.in_stats_struct() => {
                self.report(
                    Rule::FloatStatsField,
                    line,
                    format!("`{name}` field in a stats struct breaks exact-integer accounting"),
                );
            }
            "unwrap" | "expect" if self.policy.hot_path && after_dot && called => {
                self.report(
                    Rule::PanicPath,
                    line,
                    format!("`.{name}()` on the hot path panics instead of surfacing an error"),
                );
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if self.policy.hot_path && is_macro && !after_dot =>
            {
                self.report(
                    Rule::PanicPath,
                    line,
                    format!("`{name}!` on the hot path aborts the simulation"),
                );
            }
            "Vec" | "Box" if self.in_hot_fn() && static_new(name) => {
                self.report(
                    Rule::HotAlloc,
                    line,
                    format!("`{name}::new()` allocates inside a hot-annotated function"),
                );
            }
            "vec" if self.in_hot_fn() && is_macro => {
                self.report(
                    Rule::HotAlloc,
                    line,
                    "`vec![]` allocates inside a hot-annotated function".to_string(),
                );
            }
            "clone" | "collect" | "to_vec" | "to_owned"
                if self.in_hot_fn() && after_dot && called =>
            {
                self.report(
                    Rule::HotAlloc,
                    line,
                    format!("`.{name}()` allocates inside a hot-annotated function"),
                );
            }
            _ => {}
        }
    }

    /// Applies allow directives and appends malformed-directive findings.
    fn finish(mut self) -> Vec<Violation> {
        let allows = &self.directives.allows;
        self.out.retain(|v| {
            if v.rule == Rule::LintMalformed {
                return true;
            }
            !allows.iter().any(|a| {
                a.has_reason
                    && (a.line == v.line || a.line + 1 == v.line)
                    && a.rules.iter().any(|r| r == v.rule.id())
            })
        });
        for (line, msg) in std::mem::take(&mut self.directives.malformed) {
            self.report(Rule::LintMalformed, line, msg);
        }
        self.out.sort_by_key(|v| (v.line, v.rule));
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot_policy() -> FilePolicy {
        FilePolicy {
            result_affecting: true,
            wall_clock_exempt: false,
            hot_path: true,
        }
    }

    fn rules_at(src: &str, policy: FilePolicy) -> Vec<(&'static str, u32)> {
        scan_file("t.rs", src, policy)
            .into_iter()
            .map(|v| (v.rule.id(), v.line))
            .collect()
    }

    #[test]
    fn panic_paths_flagged_tests_skipped() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   #[cfg(test)]\nmod tests {\n    fn g(x: Option<u32>) { x.unwrap(); }\n}\n";
        assert_eq!(rules_at(src, hot_policy()), [("panic-path", 1)]);
    }

    #[test]
    fn inner_cfg_test_attribute_exempts_the_whole_file() {
        // An out-of-line test module: no `#[test]` on the helper, yet the
        // file's inner attribute makes all of it test code.
        let src = "#![cfg(test)]
use super::*;
struct Fixture;
                   fn helper(v: &[u32], x: Option<u32>) -> u32 { v[0] + x.unwrap() }
";
        assert!(rules_at(src, hot_policy()).is_empty());
        // Any other inner attribute leaves the file as it was, also one
        // that merely mentions `test`: at most the one item after it is
        // skipped, as after an outer attribute; the rest of the file is
        // linted.
        for attr in [
            "#![warn(missing_docs)]",
            "#![cfg(not(test))]",
            "#![cfg_attr(test, allow(dead_code))]",
        ] {
            let src =
                format!("{attr}\nfn first() {{}}\nfn f(x: Option<u32>) -> u32 {{ x.unwrap() }}\n");
            assert_eq!(rules_at(&src, hot_policy()), [("panic-path", 3)], "{attr}");
        }
    }

    #[test]
    fn test_attribute_skips_the_function_but_not_siblings() {
        let src = "#[test]\nfn a(x: Option<u32>) { x.unwrap(); }\n\
                   fn b(x: Option<u32>) { x.unwrap(); }\n";
        assert_eq!(rules_at(src, hot_policy()), [("panic-path", 3)]);
    }

    #[test]
    fn plain_test_identifier_does_not_poison_the_next_fn() {
        let src = "fn a() { let test = 1; }\nfn b(x: Option<u32>) { x.unwrap(); }\n";
        assert_eq!(rules_at(src, hot_policy()), [("panic-path", 2)]);
    }

    #[test]
    fn allow_with_reason_suppresses() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   x.unwrap() // taqos-lint: allow(panic-path) -- checked by caller\n}\n";
        assert!(rules_at(src, hot_policy()).is_empty());
    }

    #[test]
    fn allow_on_preceding_line_suppresses() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   // taqos-lint: allow(panic-path) -- checked by caller\n\
                   x.unwrap()\n}\n";
        assert!(rules_at(src, hot_policy()).is_empty());
    }

    #[test]
    fn allow_without_reason_is_malformed_and_does_not_suppress() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   x.unwrap() // taqos-lint: allow(panic-path)\n}\n";
        let got = rules_at(src, hot_policy());
        assert!(got.contains(&("panic-path", 2)));
        assert!(got.contains(&("lint-malformed", 2)));
    }

    #[test]
    fn unknown_rule_in_allow_is_malformed() {
        let src = "fn f() {} // taqos-lint: allow(no-such-rule) -- why\n";
        assert_eq!(rules_at(src, hot_policy()), [("lint-malformed", 1)]);
    }

    #[test]
    fn indexing_flagged_but_patterns_attrs_and_types_are_not() {
        let src = "#[derive(Debug)]\nstruct W([u32; 4]);\n\
                   fn f(v: &[u32; 4], i: usize) -> u32 {\n\
                   let [a, _b, _c, _d] = *v;\n    let x: [u32; 2] = [a, a];\n    v[i] + x[0]\n}\n";
        // Both index expressions share line 6; duplicates collapse per line.
        assert_eq!(rules_at(src, hot_policy()), [("panic-index", 6)]);
    }

    #[test]
    fn hot_alloc_needs_the_annotation() {
        let cold = "fn f() -> Vec<u32> { Vec::new() }\n";
        assert!(rules_at(cold, hot_policy()).is_empty());
        let hot = "// taqos-lint: hot\nfn f(s: &[u32]) -> Vec<u32> {\n    let _v = vec![1];\n    s.to_vec()\n}\n";
        assert_eq!(
            rules_at(hot, hot_policy()),
            [("hot-alloc", 3), ("hot-alloc", 4)]
        );
        let hot_new = "// taqos-lint: hot\nfn g() { let _v: Vec<u32> = Vec::new(); }\n";
        assert_eq!(rules_at(hot_new, hot_policy()), [("hot-alloc", 2)]);
    }

    #[test]
    fn float_fields_only_in_stats_structs() {
        let src = "struct FooStats { a: f64, b: u64 }\nstruct Summary { a: f64 }\n\
                   impl FooStats { fn avg(&self) -> f64 { 0.0 } }\n";
        assert_eq!(rules_at(src, hot_policy()), [("float-stats-field", 1)]);
    }

    #[test]
    fn hash_iter_respects_use_lines_and_crate_scope() {
        let src =
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
        assert_eq!(rules_at(src, hot_policy()), [("hash-iter", 2)]);
        let mut cold = hot_policy();
        cold.result_affecting = false;
        assert!(rules_at(src, cold).is_empty());
    }

    #[test]
    fn unsafe_requires_safety_comment_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(p: *const u32) -> u32 {\n\
                   unsafe { *p }\n    }\n}\n";
        assert_eq!(rules_at(src, hot_policy()), [("unsafe-no-safety", 4)]);
        let ok = "fn f(p: *const u32) -> u32 {\n    // SAFETY: caller promises p is valid\n\
                  unsafe { *p }\n}\n";
        assert!(rules_at(ok, hot_policy()).is_empty());
    }

    #[test]
    fn wall_clock_and_rng() {
        let src = "fn f() { let t = Instant::now(); let r = thread_rng(); }\n";
        let got = rules_at(src, hot_policy());
        assert!(got.contains(&("wall-clock", 1)));
        assert!(got.contains(&("unseeded-rng", 1)));
        let mut bench = hot_policy();
        bench.wall_clock_exempt = true;
        assert!(!rules_at(src, bench).contains(&("wall-clock", 1)));
    }
}
