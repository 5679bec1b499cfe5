//! Token-pattern scanning utilities shared by the model and the rules.
//!
//! The rules match patterns over *sibling runs*: the token sequence inside
//! one delimiter level. Method chains like `self.queue.push(x)` are
//! siblings (`self`, `.`, `queue`, `.`, `push`, `(x)`), so sibling-level
//! matching plus recursion into every group reaches every call site and
//! banned identifier without needing expression parsing.

use proc_macro2::TokenTree;

/// Calls `f` on every sibling run in the tree: the top-level slice and,
/// recursively, the contents of every group.
pub fn for_each_sibling_run(tokens: &[TokenTree], f: &mut dyn FnMut(&[TokenTree])) {
    f(tokens);
    for t in tokens {
        if let TokenTree::Group(g) = t {
            for_each_sibling_run(g.tokens(), f);
        }
    }
}

/// Whether the token is the identifier `word`.
pub fn is_ident(t: &TokenTree, word: &str) -> bool {
    matches!(t, TokenTree::Ident(i) if i.as_str() == word)
}

/// Whether the token is the punctuation `ch`.
pub fn is_punct(t: &TokenTree, ch: char) -> bool {
    matches!(t, TokenTree::Punct(p) if p.as_char() == ch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proc_macro2::TokenStream;

    fn toks(src: &str) -> Vec<TokenTree> {
        src.parse::<TokenStream>().unwrap().tokens().to_vec()
    }

    #[test]
    fn sibling_runs_visit_nested_groups() {
        let tokens = toks("f(a, g(b))");
        let mut runs = 0usize;
        for_each_sibling_run(&tokens, &mut |_| runs += 1);
        assert_eq!(runs, 3); // top level, f's args, g's args
    }
}
