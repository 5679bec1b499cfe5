//! The per-file source model the rules operate on: workspace-relative
//! location, crate classification, raw text (for snippets and `// lint:`
//! markers), and the parsed item tree.

use std::path::Path;

/// Where a file sits inside its crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Under `src/`, excluding `src/bin/` — library code.
    Lib,
    /// Under `src/bin/` — binary entry points.
    Bin,
    /// Under `tests/` — integration test code.
    Test,
    /// Under `benches/` — benchmark code.
    Bench,
}

/// A parsed workspace source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// The crate directory name under `crates/` (`sim`, `pmf`, ...), or
    /// the top-level directory (`tests`, `examples`) for non-crate files.
    pub crate_name: String,
    /// Library, binary, test, or bench code.
    pub role: Role,
    /// The raw source lines (for diagnostics and marker scanning).
    pub lines: Vec<String>,
    /// The parsed item tree.
    pub ast: syn::File,
    /// 1-based lines of `fn` signatures annotated `// lint: alloc-free`.
    pub alloc_free_lines: Vec<usize>,
}

impl SourceFile {
    /// Parses `text` as the file at `rel_path`. Returns the parse error
    /// message on failure so the engine can refuse to certify the file.
    pub fn parse(rel_path: &str, text: &str) -> Result<SourceFile, String> {
        let ast = syn::parse_file(text).map_err(|e| e.to_string())?;
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        let (crate_name, role) = classify(rel_path);
        let alloc_free_lines = scan_alloc_free_markers(&lines);
        Ok(SourceFile {
            rel_path: rel_path.to_string(),
            crate_name,
            role,
            lines,
            ast,
            alloc_free_lines,
        })
    }

    /// The trimmed text of a 1-based source line.
    pub fn line_text(&self, line: usize) -> &str {
        self.lines
            .get(line.saturating_sub(1))
            .map(|s| s.trim())
            .unwrap_or("")
    }
}

/// Splits a workspace-relative path into (crate name, role).
fn classify(rel_path: &str) -> (String, Role) {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let (crate_name, rest) = if parts.len() >= 3 && parts[0] == "crates" {
        (parts[1].to_string(), &parts[2..])
    } else {
        (
            parts.first().copied().unwrap_or("").to_string(),
            &parts[1..],
        )
    };
    let role = match rest.first().copied() {
        Some("src") => {
            if rest.get(1).copied() == Some("bin") {
                Role::Bin
            } else {
                Role::Lib
            }
        }
        Some("tests") => Role::Test,
        Some("benches") => Role::Bench,
        // Workspace-level `tests/` files arrive as ["tests", "x.rs"].
        _ if crate_name == "tests" => Role::Test,
        _ => Role::Lib,
    };
    (crate_name, role)
}

/// Finds `// lint: alloc-free` markers and resolves each to the next
/// line declaring a `fn` (skipping comments, attributes, and blanks).
/// The R6 rule certifies the so-annotated function's transitive call
/// closure as allocation-free.
fn scan_alloc_free_markers(lines: &[String]) -> Vec<usize> {
    let mut marked = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let trimmed = line.trim();
        let Some(rest) = trimmed.strip_prefix("//") else {
            continue;
        };
        let Some(kind) = rest.trim_start().strip_prefix("lint:") else {
            continue;
        };
        if kind.trim() != "alloc-free" {
            continue;
        }
        for (j, follower) in lines.iter().enumerate().skip(i + 1) {
            let t = follower.trim();
            if t.is_empty() || t.starts_with("//") || t.starts_with("#[") {
                continue;
            }
            if t.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .any(|w| w == "fn")
            {
                marked.push(j + 1);
            }
            break;
        }
    }
    marked
}

/// Reads a file into a [`SourceFile`], normalizing the relative path.
pub fn load(root: &Path, rel_path: &Path) -> Result<SourceFile, String> {
    let text = std::fs::read_to_string(root.join(rel_path))
        .map_err(|e| format!("{}: {e}", rel_path.display()))?;
    let rel = rel_path
        .to_string_lossy()
        .replace(std::path::MAIN_SEPARATOR, "/");
    SourceFile::parse(&rel, &text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_maps_paths_to_crates_and_roles() {
        assert_eq!(
            classify("crates/sim/src/state.rs"),
            ("sim".to_string(), Role::Lib)
        );
        assert_eq!(
            classify("crates/bench/src/bin/experiments.rs"),
            ("bench".to_string(), Role::Bin)
        );
        assert_eq!(
            classify("crates/pmf/tests/properties.rs"),
            ("pmf".to_string(), Role::Test)
        );
        assert_eq!(
            classify("crates/bench/benches/micro.rs"),
            ("bench".to_string(), Role::Bench)
        );
        assert_eq!(
            classify("tests/integration_energy.rs"),
            ("tests".to_string(), Role::Test)
        );
    }

    #[test]
    fn alloc_free_markers_resolve_to_the_following_fn() {
        let src = "\
// lint: alloc-free
#[inline]
pub fn kernel() {}

// lint: alloc-free
pub struct NotAFn;
";
        let f = SourceFile::parse("crates/pmf/src/x.rs", src).unwrap();
        assert_eq!(f.alloc_free_lines, vec![3]);
    }
}
