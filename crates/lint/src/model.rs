//! The workspace-wide analysis model behind the interprocedural rules
//! (DESIGN.md §14): every function in every scanned file, its body
//! tokens, its outgoing call sites, and a resolved call graph.
//!
//! Call resolution is heuristic, by name with context filters:
//!
//! - `name(...)` resolves to free functions named `name`;
//! - `.name(...)` resolves to receiver-taking methods named `name`,
//!   except for [`STD_SHADOWED`] names that overwhelmingly denote std
//!   methods (`push`, `insert`, `clone`, ...) — linking those would
//!   wire every `Vec::push` call site to any workspace method that
//!   happens to share the name;
//! - `Type::name(...)` resolves to methods in impls of `Type`
//!   (`Self::name` uses the caller's impl type), falling back to free
//!   functions for `module::name` qualifiers;
//! - candidates are restricted to the caller's crate and its transitive
//!   `ecds-*` dependencies, parsed from `crates/*/Cargo.toml`; crates
//!   absent from the dependency map (fixture workspaces) resolve
//!   permissively.
//!
//! Multiple surviving candidates all receive edges (an
//! over-approximation that errs toward flagging); `#[cfg(test)]` code
//! and `tests/`/`benches/` files are outside the graph entirely.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use proc_macro2::{Delimiter, TokenTree};
use syn::{Item, ItemFn, Receiver};

use crate::scan::for_each_sibling_run;
use crate::source::{Role, SourceFile};

/// Method/free-call names excluded from call-graph resolution because
/// they are overwhelmingly std-library operations; linking them by bare
/// name would fabricate edges from every collection call site to
/// same-named workspace methods.
pub const STD_SHADOWED: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "clear",
    "clone",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "peek",
    "extend",
    "reserve",
    "resize",
    "contains",
    "contains_key",
    "sort",
    "sort_by",
    "sort_by_key",
    "map",
    "filter",
    "fold",
    "collect",
    "take",
    "replace",
    "min",
    "max",
    "abs",
    "new",
    "default",
    "from",
    "into",
    "as_ref",
    "as_mut",
    "to_string",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "drop",
    "min_by",
    "max_by",
    "sum",
    "product",
];

/// How a call site was written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `name(...)`.
    Free,
    /// `.name(...)`.
    Method,
    /// `Qualifier::name(...)`; the qualifier is the path segment
    /// directly before the final `::` (empty when not an identifier).
    Qualified(String),
}

/// One syntactic call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name.
    pub name: String,
    /// How the call was written.
    pub kind: CallKind,
    /// 1-based source line.
    pub line: usize,
    /// 0-based source column.
    pub column: usize,
}

/// A token pattern hit inside a function body (a determinism-taint
/// source or an allocating construct), with its location.
#[derive(Debug, Clone)]
pub struct SiteHit {
    /// The matched construct, as reported (`thread_rng`, `.push()`,
    /// `Vec::with_capacity`, `vec!`).
    pub what: String,
    /// 1-based source line.
    pub line: usize,
    /// 0-based source column.
    pub column: usize,
}

/// One function in the workspace model.
#[derive(Debug)]
pub struct FnModel {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// The function name.
    pub name: String,
    /// The impl base type, for methods.
    pub self_ty: Option<String>,
    /// The parsed receiver, if any.
    pub receiver: Option<Receiver>,
    /// Whether any enclosing scope marks this function as test code.
    pub in_test: bool,
    /// 1-based signature line.
    pub line: usize,
    /// 0-based signature column.
    pub column: usize,
    /// Raw body tokens (`None` for bodyless trait declarations).
    pub body: Option<Vec<TokenTree>>,
    /// Outgoing syntactic call sites.
    pub calls: Vec<CallSite>,
    /// Direct determinism-taint sources (R5's banned identifiers).
    pub taint_sites: Vec<SiteHit>,
    /// Direct allocating constructs.
    pub alloc_sites: Vec<SiteHit>,
    /// Whether a `// lint: alloc-free` marker certifies this function.
    pub alloc_free_root: bool,
}

impl FnModel {
    /// `Crate::name`-style display label for diagnostics.
    pub fn label(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The parsed workspace: files, functions, and the resolved call graph.
#[derive(Debug)]
pub struct Workspace {
    /// Scanned files, sorted by relative path (discovery order does not
    /// leak into any output).
    pub files: Vec<SourceFile>,
    /// Every function, in (file, source) order.
    pub fns: Vec<FnModel>,
    /// Resolved callees per function, deduplicated and sorted.
    pub callees: Vec<Vec<usize>>,
}

impl Workspace {
    /// Builds the model from parsed files. `deps` maps each crate
    /// directory name to its transitive `ecds-*` dependency closure
    /// (see [`crate_deps`]); an empty map resolves permissively, which
    /// is what fixture workspaces want.
    pub fn new(mut files: Vec<SourceFile>, deps: &BTreeMap<String, BTreeSet<String>>) -> Workspace {
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        let mut fns = Vec::new();
        for (idx, file) in files.iter().enumerate() {
            extract_fns(idx, file, &mut fns);
        }
        let callees = resolve_calls(&files, &fns, deps);
        Workspace {
            files,
            fns,
            callees,
        }
    }

    /// Builds a model from in-memory `(rel_path, source)` pairs with
    /// permissive dependency resolution — the fixture/test entry point.
    pub fn from_sources(sources: &[(&str, &str)]) -> Result<Workspace, String> {
        let mut files = Vec::new();
        for (rel_path, text) in sources {
            files.push(SourceFile::parse(rel_path, text)?);
        }
        Ok(Workspace::new(files, &BTreeMap::new()))
    }

    /// Function indices of workspace-graph members (non-test library
    /// and binary code).
    pub fn graph_members(&self) -> impl Iterator<Item = usize> + '_ {
        self.fns.iter().enumerate().filter_map(|(i, f)| {
            (!f.in_test && matches!(self.files[f.file].role, Role::Lib | Role::Bin)).then_some(i)
        })
    }
}

/// Parses every `crates/*/Cargo.toml` under `root` and returns each
/// crate's transitive `ecds-*` dependency closure, keyed and valued by
/// crate directory name (`core` → {`pmf`, `cluster`, ...}).
pub fn crate_deps(root: &Path) -> BTreeMap<String, BTreeSet<String>> {
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return direct;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().to_string();
        let Ok(text) = std::fs::read_to_string(entry.path().join("Cargo.toml")) else {
            continue;
        };
        direct.insert(name, parse_dependency_names(&text));
    }
    // Transitive closure (the graph is tiny; iterate to fixpoint).
    let mut changed = true;
    while changed {
        changed = false;
        let keys: Vec<String> = direct.keys().cloned().collect();
        for k in keys {
            let deps: Vec<String> = direct[&k].iter().cloned().collect();
            let mut add = BTreeSet::new();
            for d in &deps {
                if let Some(dd) = direct.get(d) {
                    add.extend(dd.iter().cloned());
                }
            }
            let set = direct.get_mut(&k).expect("key exists");
            for a in add {
                changed |= set.insert(a);
            }
        }
    }
    direct
}

/// Extracts `ecds-*` dependency directory names from a `[dependencies]`
/// section (mini-TOML: section headers and `key = ...` lines).
fn parse_dependency_names(cargo_toml: &str) -> BTreeSet<String> {
    let mut deps = BTreeSet::new();
    let mut in_dependencies = false;
    for line in cargo_toml.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_dependencies = line == "[dependencies]";
            continue;
        }
        if !in_dependencies {
            continue;
        }
        let Some(key) = line.split(['=', '.']).next() else {
            continue;
        };
        let key = key.trim();
        if key == "ecds" {
            deps.insert("ecds".to_string());
        } else if let Some(dir) = key.strip_prefix("ecds-") {
            deps.insert(dir.to_string());
        }
    }
    deps
}

/// Walks a file's items, tracking impl type and test context, and
/// appends one [`FnModel`] per function.
fn extract_fns(file_idx: usize, file: &SourceFile, out: &mut Vec<FnModel>) {
    fn walk(
        items: &[Item],
        file_idx: usize,
        file: &SourceFile,
        self_ty: Option<&str>,
        inherited_test: bool,
        out: &mut Vec<FnModel>,
    ) {
        for item in items {
            let in_test = inherited_test || attrs_mark_test(item);
            match item {
                Item::Fn(f) => out.push(fn_model(file_idx, file, f, self_ty, in_test)),
                Item::Impl(i) => walk(&i.items, file_idx, file, Some(&i.self_ty), in_test, out),
                Item::Mod(m) => {
                    if let Some(content) = &m.content {
                        walk(content, file_idx, file, None, in_test, out);
                    }
                }
                _ => {}
            }
        }
    }
    let file_is_test = file.role == Role::Test;
    walk(&file.ast.items, file_idx, file, None, file_is_test, out);
}

fn attrs_mark_test(item: &Item) -> bool {
    item.attrs().iter().any(|a| {
        a.path == "test"
            || a.path.ends_with("::test")
            || (a.path == "cfg" && a.contains_word("test"))
    })
}

fn fn_model(
    file_idx: usize,
    file: &SourceFile,
    f: &ItemFn,
    self_ty: Option<&str>,
    in_test: bool,
) -> FnModel {
    let start = f.sig.span.start();
    let body: Option<Vec<TokenTree>> = f.body.as_ref().map(|b| b.tokens().to_vec());
    let mut calls = Vec::new();
    let mut taint_sites = Vec::new();
    let mut alloc_sites = Vec::new();
    if let Some(tokens) = &body {
        extract_sites(tokens, &mut calls, &mut taint_sites, &mut alloc_sites);
    }
    FnModel {
        file: file_idx,
        name: f.sig.ident.clone(),
        self_ty: self_ty.map(str::to_string),
        receiver: f.sig.receiver,
        in_test,
        line: start.line,
        column: start.column,
        body,
        calls,
        taint_sites,
        alloc_sites,
        alloc_free_root: file.alloc_free_lines.contains(&start.line),
    }
}

/// Types whose associated constructors allocate.
const ALLOC_TYPES: &[&str] = &[
    "Vec",
    "VecDeque",
    "BinaryHeap",
    "BTreeMap",
    "BTreeSet",
    "HashMap",
    "HashSet",
    "String",
    "Box",
    "Rc",
    "Arc",
];

/// Allocating associated-function names (`Vec::new`, `Box::new`, ...).
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from", "from_iter"];

/// Allocating method names (`.push(...)`, `.collect()`, ...).
const ALLOC_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "insert",
    "extend",
    "extend_from_slice",
    "append",
    "reserve",
    "reserve_exact",
    "resize",
    "collect",
    "to_vec",
    "to_owned",
    "to_string",
    "clone",
    "split_off",
    "repeat",
];

/// Allocating macros.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// One pass over every sibling run: call sites, determinism-taint
/// sources, and allocating constructs.
fn extract_sites(
    tokens: &[TokenTree],
    calls: &mut Vec<CallSite>,
    taint: &mut Vec<SiteHit>,
    alloc: &mut Vec<SiteHit>,
) {
    for_each_sibling_run(tokens, &mut |run| {
        for (i, t) in run.iter().enumerate() {
            let TokenTree::Ident(ident) = t else { continue };
            let name = ident.as_str();
            let start = t.span().start();

            if crate::rules::taint::is_banned(name) {
                taint.push(SiteHit {
                    what: name.to_string(),
                    line: start.line,
                    column: start.column,
                });
            }

            // `name ! (...)`: a macro invocation, never a fn call.
            let macro_bang =
                matches!(run.get(i + 1), Some(TokenTree::Punct(p)) if p.as_char() == '!');
            if macro_bang {
                if ALLOC_MACROS.contains(&name) {
                    alloc.push(SiteHit {
                        what: format!("{name}!"),
                        line: start.line,
                        column: start.column,
                    });
                }
                continue;
            }

            // Optional turbofish between the name and the arguments.
            let after = skip_turbofish(run, i + 1);
            let is_call = matches!(
                run.get(after),
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
            );
            if !is_call {
                continue;
            }
            if is_keyword(name) {
                continue;
            }
            // `fn name(...)`: a nested definition, not a call.
            if matches!(prev_non_attr(run, i), Some(TokenTree::Ident(k)) if k.as_str() == "fn") {
                continue;
            }

            let dotted = matches!(run.get(i.wrapping_sub(1)), Some(TokenTree::Punct(p)) if p.as_char() == '.')
                && i >= 1;
            let pathed = i >= 2
                && matches!(run.get(i - 1), Some(TokenTree::Punct(p)) if p.as_char() == ':')
                && matches!(run.get(i - 2), Some(TokenTree::Punct(p)) if p.as_char() == ':');

            let kind = if dotted {
                if ALLOC_METHODS.contains(&name) {
                    alloc.push(SiteHit {
                        what: format!(".{name}()"),
                        line: start.line,
                        column: start.column,
                    });
                }
                CallKind::Method
            } else if pathed {
                let qualifier = qualifier_before(run, i - 2);
                if ALLOC_TYPES.contains(&qualifier.as_str()) && ALLOC_CTORS.contains(&name) {
                    alloc.push(SiteHit {
                        what: format!("{qualifier}::{name}"),
                        line: start.line,
                        column: start.column,
                    });
                }
                CallKind::Qualified(qualifier)
            } else {
                CallKind::Free
            };
            calls.push(CallSite {
                name: name.to_string(),
                kind,
                line: start.line,
                column: start.column,
            });
        }
    });
}

/// Skips a `::<...>` turbofish starting at `pos`, returning the index
/// after it (or `pos` unchanged if none is present).
fn skip_turbofish(run: &[TokenTree], pos: usize) -> usize {
    if !(matches!(run.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == ':')
        && matches!(run.get(pos + 1), Some(TokenTree::Punct(p)) if p.as_char() == ':')
        && matches!(run.get(pos + 2), Some(TokenTree::Punct(p)) if p.as_char() == '<'))
    {
        return pos;
    }
    let mut depth = 0i32;
    let mut j = pos + 2;
    while let Some(t) = run.get(j) {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
        }
        j += 1;
    }
    pos
}

/// The path segment before a `::` at `sep` (index of the first `:`).
fn qualifier_before(run: &[TokenTree], sep: usize) -> String {
    // `Vec::<u8>::new`: step back over a closing turbofish to the type.
    let mut k = sep;
    if k >= 1 && matches!(run.get(k - 1), Some(TokenTree::Punct(p)) if p.as_char() == '>') {
        let mut depth = 0i32;
        while k > 0 {
            k -= 1;
            if let Some(TokenTree::Punct(p)) = run.get(k) {
                match p.as_char() {
                    '>' => depth += 1,
                    '<' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    match run.get(k.wrapping_sub(1)) {
        Some(TokenTree::Ident(q)) if k >= 1 => q.as_str().to_string(),
        _ => String::new(),
    }
}

fn prev_non_attr(run: &[TokenTree], i: usize) -> Option<&TokenTree> {
    if i == 0 {
        None
    } else {
        run.get(i - 1)
    }
}

fn is_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "match"
            | "loop"
            | "return"
            | "break"
            | "continue"
            | "let"
            | "else"
            | "move"
            | "unsafe"
            | "in"
            | "as"
            | "where"
    )
}

/// Resolves every function's call sites against the workspace.
fn resolve_calls(
    files: &[SourceFile],
    fns: &[FnModel],
    deps: &BTreeMap<String, BTreeSet<String>>,
) -> Vec<Vec<usize>> {
    // Resolution targets: non-test lib/bin functions, by name.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        if f.in_test || !matches!(files[f.file].role, Role::Lib | Role::Bin) {
            continue;
        }
        by_name.entry(f.name.as_str()).or_default().push(i);
    }

    let crate_ok = |caller: &str, callee: &str| -> bool {
        if deps.is_empty() || caller == callee {
            return true;
        }
        match deps.get(caller) {
            // Fixture pretend-crates and top-level dirs resolve
            // permissively as callers.
            None => true,
            Some(set) => set.contains(callee),
        }
    };

    fns.iter()
        .map(|caller| {
            let caller_crate = files[caller.file].crate_name.as_str();
            let mut out: Vec<usize> = Vec::new();
            for call in &caller.calls {
                let Some(cands) = by_name.get(call.name.as_str()) else {
                    continue;
                };
                for &ci in cands {
                    let callee = &fns[ci];
                    let callee_crate = files[callee.file].crate_name.as_str();
                    if !crate_ok(caller_crate, callee_crate) {
                        continue;
                    }
                    let matches = match &call.kind {
                        CallKind::Method => {
                            callee.receiver.is_some() && !STD_SHADOWED.contains(&call.name.as_str())
                        }
                        CallKind::Free => {
                            callee.self_ty.is_none() && !STD_SHADOWED.contains(&call.name.as_str())
                        }
                        CallKind::Qualified(q) if q == "Self" => {
                            callee.self_ty.is_some() && callee.self_ty == caller.self_ty
                        }
                        CallKind::Qualified(q) => {
                            callee.self_ty.as_deref() == Some(q.as_str())
                                || (callee.self_ty.is_none()
                                    && q.chars().next().is_some_and(|c| c.is_lowercase()))
                        }
                    };
                    if matches {
                        out.push(ci);
                    }
                }
            }
            out.sort_unstable();
            out.dedup();
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_sites_distinguish_free_method_and_qualified() {
        let ws = Workspace::from_sources(&[(
            "crates/sim/src/x.rs",
            "pub fn caller(s: &S) {\n\
                 helper(1);\n\
                 s.method_call();\n\
                 Shard::rebuild(s);\n\
                 mac!(ignored());\n\
             }\n\
             fn helper(x: u32) {}\n\
             pub struct S;\n\
             impl S { pub fn method_call(&self) {} }\n\
             pub struct Shard;\n\
             impl Shard { pub fn rebuild(s: &S) {} }\n",
        )])
        .unwrap();
        let caller = ws.fns.iter().position(|f| f.name == "caller").unwrap();
        let names: Vec<&str> = ws.callees[caller]
            .iter()
            .map(|&i| ws.fns[i].name.as_str())
            .collect();
        assert!(names.contains(&"helper"), "{names:?}");
        assert!(names.contains(&"method_call"), "{names:?}");
        assert!(names.contains(&"rebuild"), "{names:?}");
        // The macro body call still resolves (sibling-run recursion
        // enters the group) — an accepted over-approximation.
    }

    #[test]
    fn std_shadowed_method_names_do_not_link() {
        let ws = Workspace::from_sources(&[(
            "crates/sim/src/x.rs",
            "pub fn caller(q: &mut Q) { q.push(1); }\n\
             pub struct Q;\n\
             impl Q { pub fn push(&mut self, x: u32) {} }\n",
        )])
        .unwrap();
        let caller = ws.fns.iter().position(|f| f.name == "caller").unwrap();
        assert!(ws.callees[caller].is_empty());
        // ...but the site is still recorded as a direct allocation.
        assert_eq!(ws.fns[caller].alloc_sites.len(), 1);
        assert_eq!(ws.fns[caller].alloc_sites[0].what, ".push()");
    }

    #[test]
    fn test_regions_are_outside_the_graph() {
        let ws = Workspace::from_sources(&[(
            "crates/sim/src/x.rs",
            "pub fn caller() { helper(); }\n\
             #[cfg(test)]\n\
             mod tests { pub fn helper() {} }\n",
        )])
        .unwrap();
        let caller = ws.fns.iter().position(|f| f.name == "caller").unwrap();
        assert!(ws.callees[caller].is_empty());
    }

    #[test]
    fn taint_and_alloc_sites_are_extracted() {
        let ws = Workspace::from_sources(&[(
            "crates/sim/src/x.rs",
            "pub fn f() {\n\
                 let mut v = Vec::with_capacity(4);\n\
                 v.extend_from_slice(&[1]);\n\
                 let _ = vec![0u8; 8];\n\
                 let _r = rand::thread_rng();\n\
             }\n",
        )])
        .unwrap();
        let f = &ws.fns[0];
        let what: Vec<&str> = f.alloc_sites.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(
            what,
            vec!["Vec::with_capacity", ".extend_from_slice()", "vec!"]
        );
        assert_eq!(f.taint_sites.len(), 1);
        assert_eq!(f.taint_sites[0].what, "thread_rng");
    }

    #[test]
    fn dependency_names_parse_from_cargo_toml() {
        let deps = parse_dependency_names(
            "[package]\nname = \"ecds-core\"\n\n[dependencies]\n\
             ecds-pmf = { workspace = true }\necds-sim.workspace = true\n\
             rand = { workspace = true }\n\n[dev-dependencies]\necds-bench = { workspace = true }\n",
        );
        let got: Vec<&str> = deps.iter().map(String::as_str).collect();
        assert_eq!(got, vec!["pmf", "sim"]);
    }
}
