//! The project-specific rule set.
//!
//! | rule id            | enforces                                              |
//! |--------------------|-------------------------------------------------------|
//! | `safety_comment`   | every `unsafe` block/fn/impl/trait carries `SAFETY:`  |
//! | `alloc_confinement`| raw page syscalls / `libc` only in `crates/hugepages` |
//! | `panic`            | no unwrap/expect/panic!/todo!/unimplemented! in hot paths |
//! | `send_sync`        | `unsafe impl Send/Sync` names its invariant           |
//! | `pencil_confinement`| no per-cell unk accessors in pencil/batched-EOS modules |
//! | `graph_confinement`| no raw slab/slot accessors in step-graph task bodies  |
//! | `simd_confinement` | arch intrinsics / `#[target_feature]` only in `crates/simd` |
//! | `no_caller`        | every `pub` item is named outside its own file's tests |
//! | `allow_syntax`     | malformed escape-hatch annotations                    |
//! | `unused_allow`     | escape hatches that suppress nothing                  |
//!
//! Escape hatch: an `analyze::allow` comment — rule id in parentheses, then
//! a colon and a reason (full syntax in README.md) — on the violating line,
//! or on the comment line directly above it, suppresses that rule at that
//! site. The reason is mandatory — an allow is a reviewed, documented
//! decision, not an off switch.

use std::collections::HashMap;

use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// Rules that may be named in an allow annotation.
pub const ALLOWABLE_RULES: &[&str] = &[
    "safety_comment",
    "alloc_confinement",
    "panic",
    "send_sync",
    "pencil_confinement",
    "graph_confinement",
    "simd_confinement",
    "no_caller",
];

/// Page-level syscall identifiers confined to `crates/hugepages` (rule 2).
/// These are matched as identifier tokens, so prose in comments/strings
/// never trips them.
const CONFINED_IDENTS: &[&str] = &[
    "mmap",
    "mmap64",
    "munmap",
    "madvise",
    "mlock",
    "mlock2",
    "munlock",
    "mlockall",
    "munlockall",
    "MAP_HUGETLB",
];

/// Files allowed to use `libc` outside the hugepages crate. `perfmon`'s
/// hardware backend needs `perf_event_open(2)`/`read(2)`/`close(2)` — which
/// are not allocation paths — and is the single reviewed exception.
const LIBC_ALLOWLIST: &[&str] = &["crates/perfmon/src/hw.rs"];

/// Hot paths (rule 3): panic-capable calls are forbidden in non-test code.
const HOT_PATH_PREFIXES: &[&str] = &[
    "crates/hydro/src/",
    "crates/eos/src/",
    "crates/hugepages/src/",
];
const HOT_PATH_FILES: &[&str] = &[
    "crates/mesh/src/executor.rs",
    "crates/mesh/src/guardcell.rs",
    // The guardian's whole point is to turn bad states into typed errors;
    // a panic anywhere in its retry ladder (snapshot, attempt dispatch,
    // validation, rollback, emergency checkpoint) would be self-defeating.
    "crates/core/src/guardian.rs",
    "crates/mesh/src/shadow.rs",
    // The task-graph scheduler and the per-block step bodies run on pool
    // ranks: a panic there is caught and re-raised as an execution abort,
    // but the dispatch/reduction machinery itself must not be able to.
    "crates/mesh/src/taskgraph.rs",
    "crates/core/src/stepgraph.rs",
];

/// Macros that abort the simulation when expanded in non-test code.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];

/// Pencil-batched SoA inner-loop modules (rule 5): cell traffic must flow
/// through the gather/scatter helpers in `rflash_mesh::unk` — a stray
/// per-cell accessor silently reintroduces the strided index arithmetic and
/// bounds checks the engine exists to amortize.
const PENCIL_CONFINED: &[&str] = &["crates/hydro/src/pencil.rs", "crates/eos/src/batch.rs"];

/// Per-cell access identifiers forbidden inside pencil-confined modules.
/// Matched as whole identifier tokens (comments and strings never trip
/// them, nor do longer names like `base_addr` or `offset`).
const PENCIL_FORBIDDEN: &[&str] = &["get", "set", "addr", "slab_idx"];

/// Step-graph task-body modules (rule `graph_confinement`): every slab
/// access must flow through the race-audit claiming accessors
/// (`read_slab`/`write_slab`) so it lands in the declared-vs-actual ledger — a raw accessor is an access the
/// audit cannot see (DESIGN.md §14).
const GRAPH_CONFINED: &[&str] = &["crates/core/src/stepgraph.rs"];

/// Raw accessor method names forbidden inside graph-confined modules.
/// Matched only in method-call position (`.name(`) so locals named `slab`
/// and prose in comments never trip them.
const GRAPH_FORBIDDEN: &[&str] = &["get", "set", "addr", "slab_idx", "slab", "slab_mut"];

/// The one crate allowed to contain architecture intrinsics and
/// `#[target_feature]` wrappers (rule `simd_confinement`). Everything else
/// must go through the portable `Lane` abstraction — a stray intrinsic in
/// kernel code silently forks the bit-identity contract per architecture
/// and reopens an unsafe surface the simd crate exists to confine.
const SIMD_CONFINED_PREFIX: &str = "crates/simd/";

/// Item kinds whose `pub` definitions the `no_caller` rule tracks, and the
/// words that may sit between `pub` and the item's name (`pub(crate) const
/// unsafe fn`, `pub static mut`).
const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "const", "static", "type", "trait"];
const ITEM_QUALIFIERS: &[&str] = &["crate", "super", "unsafe", "async", "extern", "mut"];

/// One finding. `line` is 1-based.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub rel: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.rel, self.line, self.rule, self.msg
        )
    }
}

/// Kind of an `unsafe` site, for the audit and the inventory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnsafeKind {
    Block,
    Fn,
    Impl,
    ImplSend,
    ImplSync,
    Trait,
    Extern,
}

impl UnsafeKind {
    pub fn as_str(self) -> &'static str {
        match self {
            UnsafeKind::Block => "block",
            UnsafeKind::Fn => "fn",
            UnsafeKind::Impl => "impl",
            UnsafeKind::ImplSend => "impl_send",
            UnsafeKind::ImplSync => "impl_sync",
            UnsafeKind::Trait => "trait",
            UnsafeKind::Extern => "extern",
        }
    }
}

/// One `unsafe` occurrence with its resolved justification comment.
#[derive(Clone, Debug)]
pub struct UnsafeSite {
    pub line: usize,
    pub kind: UnsafeKind,
    /// Excerpt of the attached `SAFETY:` text (or `# Safety` doc section).
    pub safety: Option<String>,
    pub in_test: bool,
}

/// A parsed `analyze::allow` annotation.
struct Allow {
    line: usize,
    /// First code line at or below the annotation — the line it suppresses.
    target: usize,
    rule: String,
    reason: String,
    used: std::cell::Cell<bool>,
}

/// Analyze one file. `rel` must be the workspace-relative path with `/`
/// separators — the confinement and hot-path rules key off it. For
/// `no_caller` the file is its own workspace.
pub fn check_source(rel: &str, src: &str) -> Vec<Violation> {
    check_files(&[SourceFile::parse(rel, src)], &[])
}

/// Analyze `files` as one workspace; `readers` are only searched for callers.
pub(crate) fn check_files(files: &[SourceFile], readers: &[SourceFile]) -> Vec<Violation> {
    let uncalled = rule_no_caller(files, readers);
    files
        .iter()
        .flat_map(|sf| check_file(sf, &uncalled))
        .collect()
}

/// The per-file rules plus `sf`'s share of the workspace findings
/// `uncalled`, under `sf`'s allow annotations.
fn check_file(sf: &SourceFile, uncalled: &[Violation]) -> Vec<Violation> {
    let rel = sf.rel.as_str();
    let allows = collect_allows(sf);
    let mut violations = Vec::new();

    // Malformed annotations are themselves violations (rule allow_syntax);
    // they also never suppress anything.
    for a in &allows {
        if !ALLOWABLE_RULES.contains(&a.rule.as_str()) {
            violations.push(Violation {
                rel: rel.to_string(),
                line: a.line,
                rule: "allow_syntax",
                msg: format!(
                    "unknown rule '{}' in allow annotation (known: {})",
                    a.rule,
                    ALLOWABLE_RULES.join(", ")
                ),
            });
            a.used.set(true); // don't double-report as unused
        } else if a.reason.is_empty() {
            violations.push(Violation {
                rel: rel.to_string(),
                line: a.line,
                rule: "allow_syntax",
                msg: format!(
                    "allow({}) has no reason; write 'analyze::allow({}): <why>'",
                    a.rule, a.rule
                ),
            });
            a.used.set(true);
        }
    }

    let mut candidate = Vec::new();
    candidate.extend(uncalled.iter().filter(|v| v.rel == sf.rel).cloned());
    rule_unsafe_audit(sf, &mut candidate);
    rule_alloc_confinement(sf, &mut candidate);
    rule_panic_freedom(sf, &mut candidate);
    rule_pencil_confinement(sf, &mut candidate);
    rule_graph_confinement(sf, &mut candidate);
    rule_simd_confinement(sf, &mut candidate);

    for v in candidate {
        if let Some(a) = allows.iter().find(|a| {
            a.rule == v.rule && !a.reason.is_empty() && (a.target == v.line || a.line == v.line)
        }) {
            a.used.set(true);
            continue;
        }
        violations.push(v);
    }

    for a in &allows {
        if !a.used.get() {
            violations.push(Violation {
                rel: rel.to_string(),
                line: a.line,
                rule: "unused_allow",
                msg: format!(
                    "allow({}) suppresses nothing on line {}; remove it",
                    a.rule, a.target
                ),
            });
        }
    }

    violations.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    violations
}

/// Enumerate the `unsafe` sites of a file (shared by the audit rule and the
/// inventory emitter).
pub fn unsafe_sites(sf: &SourceFile) -> Vec<UnsafeSite> {
    let mut sites = Vec::new();
    for (i, tok) in sf.tokens.iter().enumerate() {
        if !tok.is_ident("unsafe") || sf.is_attr[i] {
            continue;
        }
        let kind = classify_unsafe(sf, i);
        let accept_doc = matches!(kind, UnsafeKind::Fn | UnsafeKind::Trait);
        let safety = safety_comment_for(sf, tok.line, accept_doc);
        sites.push(UnsafeSite {
            line: tok.line,
            kind,
            safety,
            in_test: sf.in_test[i],
        });
    }
    sites
}

fn classify_unsafe(sf: &SourceFile, i: usize) -> UnsafeKind {
    // Next non-comment token decides the site kind.
    let mut j = i + 1;
    while j < sf.tokens.len() && sf.tokens[j].is_comment() {
        j += 1;
    }
    let Some(next) = sf.tokens.get(j) else {
        return UnsafeKind::Block;
    };
    if next.is_punct('{') {
        return UnsafeKind::Block;
    }
    match next.ident() {
        Some("fn") => UnsafeKind::Fn,
        Some("trait") => UnsafeKind::Trait,
        Some("extern") => UnsafeKind::Extern,
        Some("impl") => {
            // Walk the impl header up to `for`/`{`; idents at angle-depth 0
            // name the implemented trait path.
            let mut depth = 0isize;
            let mut k = j + 1;
            let mut send = false;
            let mut sync = false;
            while k < sf.tokens.len() {
                let t = &sf.tokens[k];
                if t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct('>') {
                    depth -= 1;
                } else if depth == 0 {
                    if t.is_ident("for") || t.is_punct('{') {
                        break;
                    }
                    send |= t.is_ident("Send");
                    sync |= t.is_ident("Sync");
                }
                k += 1;
            }
            if send {
                UnsafeKind::ImplSend
            } else if sync {
                UnsafeKind::ImplSync
            } else {
                UnsafeKind::Impl
            }
        }
        _ => UnsafeKind::Block,
    }
}

/// Find the justification comment attached to the `unsafe` on `line`:
/// a `SAFETY:` comment on the same line, or in the contiguous block of
/// comment/attribute/`unsafe impl` lines directly above. For fns and traits
/// a rustdoc `# Safety` section also qualifies.
fn safety_comment_for(sf: &SourceFile, line: usize, accept_doc: bool) -> Option<String> {
    let mut block: Vec<String> = sf.comments_on(line);
    let mut l = line;
    while l > 1 {
        l -= 1;
        let li = sf.line(l);
        if !li.code && (li.comment || !li.comments.is_empty()) {
            for c in li.comments.iter().rev() {
                block.insert(0, c.clone());
            }
            continue;
        }
        if li.code && (li.attr_only || li.unsafe_impl_start) {
            // Attributes sit between docs and items; a one-line
            // `unsafe impl` extends its group's shared comment upward.
            for c in li.comments.iter().rev() {
                block.insert(0, c.clone());
            }
            continue;
        }
        // A real code line or a blank line terminates the comment block.
        break;
    }
    extract_safety(&block, accept_doc)
}

fn extract_safety(block: &[String], accept_doc: bool) -> Option<String> {
    for (i, text) in block.iter().enumerate() {
        if let Some(pos) = text.find("SAFETY:") {
            // Join the tail of this comment with the rest of the block so
            // multi-line justifications come through whole.
            let mut s = text[pos + "SAFETY:".len()..].trim().to_string();
            for extra in &block[i + 1..] {
                let extra = extra.trim_start_matches(['/', '!']).trim();
                if !extra.is_empty() {
                    s.push(' ');
                    s.push_str(extra);
                }
            }
            s.truncate(200);
            return Some(s.trim().to_string());
        }
        if accept_doc && text.to_ascii_lowercase().contains("# safety") {
            return Some("# Safety doc section".to_string());
        }
    }
    None
}

fn rule_unsafe_audit(sf: &SourceFile, out: &mut Vec<Violation>) {
    for site in unsafe_sites(sf) {
        let (rule, what): (&'static str, String) = match site.kind {
            UnsafeKind::ImplSend | UnsafeKind::ImplSync => (
                "send_sync",
                format!(
                    "`unsafe {}`",
                    if site.kind == UnsafeKind::ImplSend {
                        "impl Send"
                    } else {
                        "impl Sync"
                    }
                ),
            ),
            k => ("safety_comment", format!("unsafe {}", k.as_str())),
        };
        match &site.safety {
            None => out.push(Violation {
                rel: sf.rel.clone(),
                line: site.line,
                rule,
                msg: format!(
                    "{what} has no `// SAFETY:` comment{}",
                    if matches!(site.kind, UnsafeKind::Fn | UnsafeKind::Trait) {
                        " (or `# Safety` doc section)"
                    } else {
                        ""
                    }
                ),
            }),
            Some(text)
                if matches!(site.kind, UnsafeKind::ImplSend | UnsafeKind::ImplSync)
                    && text.len() < 12 =>
            {
                // A manual Send/Sync claim must actually name the invariant
                // it relies on; "SAFETY: fine" does not survive review.
                out.push(Violation {
                    rel: sf.rel.clone(),
                    line: site.line,
                    rule: "send_sync",
                    msg: format!("{what} SAFETY comment too thin to name an invariant: \"{text}\""),
                });
            }
            Some(_) => {}
        }
    }
}

fn rule_alloc_confinement(sf: &SourceFile, out: &mut Vec<Violation>) {
    if sf.rel.starts_with("crates/hugepages/") {
        return;
    }
    let allowlisted = LIBC_ALLOWLIST.contains(&sf.rel.as_str());
    for tok in &sf.tokens {
        let Some(word) = tok.ident() else { continue };
        if CONFINED_IDENTS.contains(&word) {
            out.push(Violation {
                rel: sf.rel.clone(),
                line: tok.line,
                rule: "alloc_confinement",
                msg: format!(
                    "raw page-level syscall `{word}` outside crates/hugepages — large \
                     allocations must flow through the hugepage-aware allocator"
                ),
            });
        } else if word == "libc" && !allowlisted {
            out.push(Violation {
                rel: sf.rel.clone(),
                line: tok.line,
                rule: "alloc_confinement",
                msg: "direct `libc` use outside crates/hugepages (perfmon/src/hw.rs is the \
                      only allowlisted exception)"
                    .to_string(),
            });
        }
    }
}

/// Whole file counts as test code for the panic rule when it lives in a
/// `tests/`, `benches/`, or `examples/` directory.
fn is_test_path(rel: &str) -> bool {
    rel.split('/')
        .any(|seg| matches!(seg, "tests" | "benches" | "examples"))
}

pub fn is_hot_path(rel: &str) -> bool {
    HOT_PATH_FILES.contains(&rel) || HOT_PATH_PREFIXES.iter().any(|p| rel.starts_with(p))
}

fn rule_panic_freedom(sf: &SourceFile, out: &mut Vec<Violation>) {
    if !is_hot_path(&sf.rel) || is_test_path(&sf.rel) {
        return;
    }
    let toks = &sf.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if sf.in_test[i] || sf.is_attr[i] {
            continue;
        }
        let Some(word) = tok.ident() else { continue };
        let next_is = |c: char| toks.get(i + 1).map(|t| t.is_punct(c)).unwrap_or(false);
        let prev_is_dot = i > 0 && toks[i - 1].is_punct('.');
        if (word == "unwrap" || word == "expect") && prev_is_dot && next_is('(') {
            out.push(Violation {
                rel: sf.rel.clone(),
                line: tok.line,
                rule: "panic",
                msg: format!(
                    "`.{word}()` in hot-path code — propagate a Result or document an allow"
                ),
            });
        } else if PANIC_MACROS.contains(&word) && next_is('!') {
            out.push(Violation {
                rel: sf.rel.clone(),
                line: tok.line,
                rule: "panic",
                msg: format!("`{word}!` in hot-path code — return an error instead of aborting"),
            });
        }
    }
}

fn rule_pencil_confinement(sf: &SourceFile, out: &mut Vec<Violation>) {
    if !PENCIL_CONFINED.contains(&sf.rel.as_str()) {
        return;
    }
    for (i, tok) in sf.tokens.iter().enumerate() {
        if sf.in_test[i] || sf.is_attr[i] {
            continue;
        }
        let Some(word) = tok.ident() else { continue };
        if PENCIL_FORBIDDEN.contains(&word) {
            out.push(Violation {
                rel: sf.rel.clone(),
                line: tok.line,
                rule: "pencil_confinement",
                msg: format!(
                    "per-cell accessor `{word}` in a pencil-confined module — cell \
                     traffic must flow through the UnkGeom slab/pencil helpers \
                     (gather_slab/scatter_slab, gather_pencil/scatter_pencil)"
                ),
            });
        }
    }
}

fn rule_graph_confinement(sf: &SourceFile, out: &mut Vec<Violation>) {
    if !GRAPH_CONFINED.contains(&sf.rel.as_str()) {
        return;
    }
    let toks = &sf.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if sf.in_test[i] || sf.is_attr[i] {
            continue;
        }
        let Some(word) = tok.ident() else { continue };
        if !GRAPH_FORBIDDEN.contains(&word) {
            continue;
        }
        let prev_is_dot = i > 0 && toks[i - 1].is_punct('.');
        let next_is_paren = toks.get(i + 1).map(|t| t.is_punct('(')).unwrap_or(false);
        if prev_is_dot && next_is_paren {
            out.push(Violation {
                rel: sf.rel.clone(),
                line: tok.line,
                rule: "graph_confinement",
                msg: format!(
                    "raw accessor `.{word}()` in a step-graph module — task bodies must \
                     use the claiming accessors (read_slab/write_slab) so the \
                     race-audit ledger sees the access"
                ),
            });
        }
    }
}

fn rule_simd_confinement(sf: &SourceFile, out: &mut Vec<Violation>) {
    if sf.rel.starts_with(SIMD_CONFINED_PREFIX) {
        return;
    }
    let toks = &sf.tokens;
    for (i, tok) in toks.iter().enumerate() {
        let Some(word) = tok.ident() else { continue };
        // x86 intrinsic calls and vector types: `_mm*` / `__m*` covers the
        // whole `core::arch::x86_64` surface (`_mm_add_pd`, `__m256d`, ...).
        if word.starts_with("_mm") || word.starts_with("__m") {
            out.push(Violation {
                rel: sf.rel.clone(),
                line: tok.line,
                rule: "simd_confinement",
                msg: format!(
                    "architecture intrinsic `{word}` outside crates/simd — vector code \
                     must go through the portable `Lane` abstraction"
                ),
            });
            continue;
        }
        // The `#[target_feature(...)]` attribute (prev token `[`
        // distinguishes it from a `#[cfg(target_feature = ...)]` probe,
        // where the word sits behind a `(`).
        if word == "target_feature" && sf.is_attr[i] && i > 0 && toks[i - 1].is_punct('[') {
            out.push(Violation {
                rel: sf.rel.clone(),
                line: tok.line,
                rule: "simd_confinement",
                msg: "`#[target_feature]` outside crates/simd — feature-gated codegen \
                      belongs behind the simd crate's dispatch wrappers"
                    .to_string(),
            });
            continue;
        }
        // `core::arch` / `std::arch` module paths (covers
        // `is_x86_feature_detected!` re-exports and direct module imports).
        if word == "arch"
            && i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3]
                .ident()
                .is_some_and(|w| w == "core" || w == "std")
        {
            out.push(Violation {
                rel: sf.rel.clone(),
                line: tok.line,
                rule: "simd_confinement",
                msg: "`core::arch`/`std::arch` path outside crates/simd — architecture \
                      access is confined to the simd crate"
                    .to_string(),
            });
        }
    }
}

/// The `pub` items of `sf` outside test regions, as (name, keyword, line).
/// `macro_rules!` bodies (`pub fn $name`) and `_` consts name nothing.
fn pub_items(sf: &SourceFile) -> Vec<(&str, &'static str, usize)> {
    let mut items = Vec::new();
    for (i, tok) in sf.tokens.iter().enumerate() {
        if !tok.is_ident("pub") || sf.is_attr[i] || sf.in_test[i] {
            continue;
        }
        let mut keyword = None;
        for t in &sf.tokens[i + 1..] {
            match &t.kind {
                TokenKind::Ident(w) if ITEM_QUALIFIERS.contains(&w.as_str()) => {}
                TokenKind::Ident(w) => match ITEM_KEYWORDS.iter().find(|k| *k == w) {
                    Some(k) => keyword = Some(*k),
                    None => {
                        if let Some(k) = keyword.filter(|_| w != "_") {
                            items.push((w.as_str(), k, t.line));
                        }
                        break;
                    }
                },
                TokenKind::Comment(_) | TokenKind::StrLit | TokenKind::Punct('(' | ')') => {}
                _ => break,
            }
        }
    }
    items
}

/// Rule `no_caller`: a `pub` item of `files` whose name appears as an
/// identifier nowhere but at its own definition and in its own file's test
/// regions. Comments and strings are not identifiers. The match is by name,
/// not resolved: any other token of the same name counts as a caller.
fn rule_no_caller(files: &[SourceFile], readers: &[SourceFile]) -> Vec<Violation> {
    let items: Vec<_> = files.iter().map(pub_items).collect();
    // Every identifier token of a defined name, as (file index, in a test region).
    let mut uses: HashMap<&str, Vec<(usize, bool)>> = HashMap::new();
    for &(name, ..) in items.iter().flatten() {
        uses.insert(name, Vec::new());
    }
    for (f, sf) in files.iter().chain(readers).enumerate() {
        for (t, &test) in sf.tokens.iter().zip(&sf.in_test) {
            if let Some(u) = t.ident().and_then(|w| uses.get_mut(w)) {
                u.push((f, test));
            }
        }
    }
    let mut out = Vec::new();
    for (f, (sf, items)) in files.iter().zip(&items).enumerate() {
        for &(name, keyword, line) in items {
            // Uses outside this file's tests; the definition itself is one.
            let outside = uses[name].iter().filter(|&&(g, test)| !(g == f && test));
            if outside.count() == 1 {
                out.push(Violation {
                    rel: sf.rel.clone(),
                    line,
                    rule: "no_caller",
                    msg: format!("`pub {keyword} {name}` has no caller outside this file's tests"),
                });
            }
        }
    }
    out
}

fn collect_allows(sf: &SourceFile) -> Vec<Allow> {
    const NEEDLE: &str = "analyze::allow(";
    let mut allows = Vec::new();
    for tok in &sf.tokens {
        let crate::lexer::TokenKind::Comment(text) = &tok.kind else {
            continue;
        };
        let Some(start) = text.find(NEEDLE) else {
            continue;
        };
        let rest = &text[start + NEEDLE.len()..];
        let (rule, reason) = match rest.find(')') {
            Some(close) => {
                let rule = rest[..close].trim().to_string();
                let after = rest[close + 1..].trim_start();
                let reason = after.strip_prefix(':').unwrap_or("").trim().to_string();
                (rule, reason)
            }
            None => (rest.trim().to_string(), String::new()),
        };
        // The annotation suppresses the first code line at or below it.
        let mut target = tok.line;
        if !sf.line(tok.line).code {
            let mut l = tok.line + 1;
            let limit = sf.line_count();
            while l <= limit && !sf.line(l).code {
                l += 1;
            }
            target = l.min(limit);
        }
        allows.push(Allow {
            line: tok.line,
            target,
            rule,
            reason,
            used: std::cell::Cell::new(false),
        });
    }
    allows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(rel: &str, src: &str) -> Vec<Violation> {
        check_source(rel, src)
    }

    #[test]
    fn unsafe_block_without_safety_flags() {
        let v = check("crates/mesh/src/x.rs", "fn f() { unsafe { g(); } }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "safety_comment");
    }

    #[test]
    fn unsafe_block_with_safety_passes() {
        let v = check(
            "crates/mesh/src/x.rs",
            "fn f() {\n    // SAFETY: g has no preconditions here.\n    unsafe { g(); }\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn trailing_safety_on_same_line_passes() {
        let v = check(
            "crates/mesh/src/x.rs",
            "fn f() {\n    let p = unsafe { q() }; // SAFETY: q is pure.\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unsafe_fn_doc_safety_section_passes() {
        let v = check(
            "crates/mesh/src/x.rs",
            "/// Does things.\n///\n/// # Safety\n/// Caller must own `p`.\nunsafe fn f(p: *mut u8) {}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn grouped_unsafe_impls_share_one_safety_comment() {
        let v = check(
            "crates/mesh/src/x.rs",
            "// SAFETY: every listed primitive is valid for all bit patterns.\nunsafe impl Pod for u8 {}\nunsafe impl Pod for u16 {}\nunsafe impl Pod for u32 {}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn send_sync_requires_substantive_comment() {
        let thin = check(
            "crates/mesh/src/x.rs",
            "// SAFETY: fine.\nunsafe impl Send for X {}\n",
        );
        assert_eq!(thin.len(), 1);
        assert_eq!(thin[0].rule, "send_sync");
        let missing = check("crates/mesh/src/x.rs", "unsafe impl Sync for X {}\n");
        assert_eq!(missing[0].rule, "send_sync");
        let good = check(
            "crates/mesh/src/x.rs",
            "// SAFETY: access is partitioned by rank index, one thread per slot.\nunsafe impl<T: Send> Sync for X<T> {}\n",
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn confinement_flags_mmap_outside_hugepages() {
        let v = check(
            "crates/mesh/src/x.rs",
            "fn f() { let p = libc::mmap(core::ptr::null_mut(), n, 0, 0, -1, 0); }\n",
        );
        assert!(v.iter().any(|v| v.rule == "alloc_confinement"));
        let ok = check(
            "crates/hugepages/src/x.rs",
            "fn f() { let p = libc::mmap(core::ptr::null_mut(), n, 0, 0, -1, 0); }\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn confinement_allowlists_perfmon_hw_for_libc_but_not_mmap() {
        let ok = check("crates/perfmon/src/hw.rs", "fn f() { libc::close(fd); }\n");
        assert!(ok.is_empty(), "{ok:?}");
        let bad = check(
            "crates/perfmon/src/hw.rs",
            "fn f() { libc::mmap(p, n, 0, 0, -1, 0); }\n",
        );
        assert!(bad.iter().any(|v| v.rule == "alloc_confinement"));
    }

    #[test]
    fn mmap_in_comment_or_string_is_ignored() {
        let v = check(
            "crates/mesh/src/x.rs",
            "// we used to call mmap here\nfn f() { let s = \"madvise\"; }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn hot_path_unwrap_flags_but_test_mod_is_exempt() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        let hot = check("crates/eos/src/x.rs", src);
        assert_eq!(hot.len(), 1, "{hot:?}");
        assert_eq!(hot[0].rule, "panic");
        assert_eq!(hot[0].line, 1);
        let cold = check("crates/tlbsim/src/x.rs", src);
        assert!(cold.is_empty(), "{cold:?}");
    }

    #[test]
    fn panic_macro_flags_but_catch_unwind_path_does_not() {
        let v = check(
            "crates/hydro/src/x.rs",
            "use std::panic::catch_unwind;\nfn f() { panic!(\"boom\"); }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn allow_suppresses_from_line_above_and_same_line() {
        let above = check(
            "crates/eos/src/x.rs",
            "fn f(x: Option<u8>) {\n    // analyze::allow(panic): x is Some by construction two lines up.\n    x.unwrap();\n}\n",
        );
        assert!(above.is_empty(), "{above:?}");
        let inline = check(
            "crates/eos/src/x.rs",
            "fn f(x: Option<u8>) { x.unwrap(); // analyze::allow(panic): guarded above.\n}\n",
        );
        assert!(inline.is_empty(), "{inline:?}");
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let v = check(
            "crates/eos/src/x.rs",
            "fn f(x: Option<u8>) {\n    // analyze::allow(panic)\n    x.unwrap();\n}\n",
        );
        assert!(v.iter().any(|v| v.rule == "allow_syntax"), "{v:?}");
        assert!(v.iter().any(|v| v.rule == "panic"), "{v:?}");
    }

    #[test]
    fn unknown_allow_rule_is_rejected() {
        let v = check(
            "crates/mesh/src/x.rs",
            "// analyze::allow(everything): please\nfn f() {}\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "allow_syntax");
    }

    #[test]
    fn unused_allow_is_flagged() {
        let v = check(
            "crates/mesh/src/x.rs",
            "// analyze::allow(panic): no longer needed.\nfn f() {}\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unused_allow");
    }

    #[test]
    fn tests_dir_file_is_exempt_from_panic_rule_only() {
        let v = check(
            "crates/eos/tests/integration.rs",
            "fn f(x: Option<u8>) { x.unwrap(); }\nfn g() { unsafe { h(); } }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "safety_comment");
    }

    #[test]
    fn pencil_confinement_flags_cell_accessors_in_confined_modules() {
        let src = "fn f(u: &Unk) { let v = u.get(0, i, j, k, b); u.set(0, i, j, k, b, v); }\n";
        let v = check("crates/hydro/src/pencil.rs", src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "pencil_confinement"));
        // The same code is fine anywhere else.
        let elsewhere = check("crates/mesh/src/unk.rs", src);
        assert!(elsewhere.is_empty(), "{elsewhere:?}");
    }

    #[test]
    fn pencil_confinement_ignores_comments_tests_and_longer_names() {
        let src = "// the scalar path calls get/set/slab_idx per cell\n\
                   fn f(t: &Table) -> usize { t.base_addr() }\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { u.get(0, 1, 1, 0, 0); }\n}\n";
        let v = check("crates/eos/src/batch.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn pencil_confinement_honors_allow() {
        let v = check(
            "crates/hydro/src/pencil.rs",
            "fn f(u: &Unk) {\n    // analyze::allow(pencil_confinement): one-off probe read, not a loop.\n    u.get(0, 1, 1, 0, 0);\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn graph_confinement_flags_raw_accessor_calls_in_stepgraph() {
        let src = "fn f(c: &UnkCells, s: &Slots) {\n    let a = unsafe { c.slab(0) };\n    let b = unsafe { c.slab_mut(1) };\n    let v = unsafe { s.get(2) };\n}\n";
        let v = check("crates/core/src/stepgraph.rs", src);
        let graph: Vec<_> = v.iter().filter(|v| v.rule == "graph_confinement").collect();
        assert_eq!(graph.len(), 3, "{v:?}");
        // The same code is fine anywhere else (modulo the panic/safety rules).
        let elsewhere = check("crates/mesh/src/domain.rs", src);
        assert!(
            elsewhere.iter().all(|v| v.rule != "graph_confinement"),
            "{elsewhere:?}"
        );
    }

    #[test]
    fn graph_confinement_ignores_locals_comments_tests_and_claiming_accessors() {
        let src = "// the old body called c.slab(0) and s.get(i) directly\n\
                   fn f(c: &UnkCells) {\n    let slab = unsafe { c.read_slab(0, Region::Interior) };\n    let w = unsafe { c.write_slab(1, Region::Guards, None) };\n}\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t(s: &Slots) { unsafe { s.get(0) }; }\n}\n";
        let v = check("crates/core/src/stepgraph.rs", src);
        assert!(v.iter().all(|v| v.rule != "graph_confinement"), "{v:?}");
    }

    #[test]
    fn graph_confinement_honors_allow() {
        let v = check(
            "crates/core/src/stepgraph.rs",
            "fn f(s: &Slots) {\n    // analyze::allow(graph_confinement): diagnostic probe outside any task body.\n    // SAFETY: quiescent graph.\n    let x = unsafe { s.get(0) };\n}\n",
        );
        assert!(v.iter().all(|v| v.rule != "graph_confinement"), "{v:?}");
    }

    #[test]
    fn simd_confinement_flags_intrinsics_and_target_feature_outside_simd() {
        let src = "#[target_feature(enable = \"avx2\")]\n\
                   unsafe fn f(a: __m256d) -> __m256d { _mm256_add_pd(a, a) }\n\
                   use core::arch::x86_64::_mm_add_pd;\n";
        let v = check("crates/hydro/src/x.rs", src);
        let simd: Vec<_> = v.iter().filter(|v| v.rule == "simd_confinement").collect();
        // target_feature + __m256d x2 + _mm256_add_pd + core::arch + _mm_add_pd
        assert_eq!(simd.len(), 6, "{v:?}");
        // The same code is fine inside the simd crate (modulo safety_comment).
        let inside = check("crates/simd/src/x.rs", src);
        assert!(
            inside.iter().all(|v| v.rule != "simd_confinement"),
            "{inside:?}"
        );
    }

    #[test]
    fn simd_confinement_ignores_cfg_probes_prose_and_lane_code() {
        let src = "// the avx2 backend calls _mm256_fmadd_pd via core::arch\n\
                   #[cfg(target_feature = \"avx2\")]\n\
                   fn probe() {}\n\
                   fn f<L: Lane>(a: L, b: L) -> L { a.add(b) }\n";
        let v = check("crates/hydro/src/x.rs", src);
        assert!(v.iter().all(|v| v.rule != "simd_confinement"), "{v:?}");
    }

    #[test]
    fn unwrap_or_and_expect_err_are_not_flagged() {
        let v = check(
            "crates/eos/src/x.rs",
            "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn no_caller_finds_every_item_kind_behind_qualifiers() {
        let src = "pub const fn a() {}\npub unsafe extern \"C\" fn b() {}\npub static mut C: u8 = 0;\n\
                   pub(crate) type D = u8;\npub unsafe trait E {}\npub enum F {}\npub const G: u8 = 0;\n\
                   pub const _: () = ();\npub mod h {}\npub use std::fmt;\npub struct S { pub field: u8 }\n\
                   #[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n";
        let mut v = check("crates/tlbsim/src/x.rs", src);
        v.retain(|v| v.rule == "no_caller");
        let lines: Vec<_> = v.iter().map(|v| v.line).collect();
        assert_eq!(lines, [1, 2, 3, 4, 5, 6, 7, 11], "{v:?}");
    }
}
