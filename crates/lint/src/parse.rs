//! The brace-tree layer: structural parsing over the masked token stream.
//!
//! The pattern rules see Rust as a flat token sequence, which is enough to
//! ban a call by name but blind to *structure*: they cannot tell a
//! reduction inside a worker closure from one on the parallel chain
//! itself. [`Tree`] recovers exactly the structure `float-reduction` needs
//! and no Rust grammar beyond it: the nesting of `()`/`[]`/`{}` delimiter
//! groups, tolerant of unbalanced input (a stray closer is treated as
//! plain punctuation), plus the statement range around a token.
//!
//! Everything operates on the *masked* view ([`crate::lexer`]), so
//! structure inside comments and literals does not exist here, and every
//! recovered span maps straight back to source offsets for diagnostics.

use crate::lexer::TokenView;

/// What a [`Node`] is delimited by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelimKind {
    /// The whole file (node 0).
    Root,
    /// `( … )`
    Paren,
    /// `[ … ]`
    Bracket,
    /// `{ … }`
    Brace,
}

/// One delimiter group in the brace tree.
#[derive(Debug, Clone)]
pub struct Node {
    /// Delimiter kind.
    pub kind: DelimKind,
    /// Token index of the opener (root: 0).
    pub open: usize,
    /// Token index of the closer (root: one past the last token; an
    /// unclosed group runs to the end of the file).
    pub close: usize,
}

/// The delimiter-nesting tree of one file.
#[derive(Debug)]
pub struct Tree {
    nodes: Vec<Node>,
    /// `enclosing[tok]`: the deepest node containing token `tok`. An
    /// opener or closer belongs to the node it delimits.
    enclosing: Vec<usize>,
}

impl Tree {
    /// Build the tree from a token view. Never fails: unmatched closers
    /// stay in their surrounding node, unmatched openers run to EOF.
    pub fn build(tv: &TokenView<'_>) -> Tree {
        let n = tv.toks().len();
        let mut nodes = vec![Node {
            kind: DelimKind::Root,
            open: 0,
            close: n,
        }];
        let mut enclosing = Vec::with_capacity(n);
        let mut stack = vec![0usize];
        for i in 0..n {
            let top = *stack.last().unwrap_or(&0);
            match tv.text(i) {
                "(" | "[" | "{" => {
                    let kind = match tv.text(i) {
                        "(" => DelimKind::Paren,
                        "[" => DelimKind::Bracket,
                        _ => DelimKind::Brace,
                    };
                    let id = nodes.len();
                    nodes.push(Node {
                        kind,
                        open: i,
                        close: n,
                    });
                    enclosing.push(id);
                    stack.push(id);
                }
                ")" | "]" | "}" => {
                    let kind = match tv.text(i) {
                        ")" => DelimKind::Paren,
                        "]" => DelimKind::Bracket,
                        _ => DelimKind::Brace,
                    };
                    if stack.len() > 1 && nodes[top].kind == kind {
                        nodes[top].close = i;
                        stack.pop();
                    }
                    enclosing.push(top);
                }
                _ => enclosing.push(top),
            }
        }
        Tree { nodes, enclosing }
    }

    /// The node with id `id`.
    pub fn node(&self, id: usize) -> &Node {
        &self.nodes[id]
    }

    /// Number of nodes (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the tree just the root (no delimiter groups)?
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// The deepest node containing token `tok`.
    pub fn enclosing(&self, tok: usize) -> usize {
        self.enclosing.get(tok).copied().unwrap_or(0)
    }

    /// Token range `[start, end)` of the statement containing `tok`,
    /// bounded by `;` tokens at the same nesting level (and the enclosing
    /// group's delimiters).
    pub fn stmt_range(&self, tv: &TokenView<'_>, tok: usize) -> (usize, usize) {
        let node = self.enclosing(tok);
        let (open, close) = (self.nodes[node].open, self.nodes[node].close);
        let lo = if node == 0 { 0 } else { open + 1 };
        let mut start = lo;
        for m in (lo..tok).rev() {
            if self.enclosing(m) == node && tv.text(m) == ";" {
                start = m + 1;
                break;
            }
        }
        let mut end = close;
        for m in tok + 1..close.min(tv.toks().len()) {
            if self.enclosing(m) == node && tv.text(m) == ";" {
                end = m;
                break;
            }
        }
        (start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{scan, Scan};

    fn scan_of(src: &str) -> Scan {
        scan(src)
    }

    #[test]
    fn tree_nests_and_recovers() {
        let s = scan_of("fn f(a: u32) { if a > [1][0] { g(a); } }");
        let tv = TokenView::new(&s);
        let t = Tree::build(&tv);
        assert!(t.len() > 4);
        // The `g` call's tokens sit inside the `if` brace inside the fn
        // brace inside the root.
        let g = (0..tv.toks().len()).find(|&i| tv.text(i) == "g").unwrap();
        let node = t.enclosing(g);
        assert_eq!(t.node(node).kind, DelimKind::Brace);
        assert!(!t.is_empty());
    }

    #[test]
    fn tree_tolerates_unbalanced_input() {
        let s = scan_of("fn f() { ) } ]");
        let tv = TokenView::new(&s);
        let t = Tree::build(&tv); // must not panic
        assert!(t.len() >= 2);
    }

    #[test]
    fn stmt_range_stops_at_semicolons() {
        let s = scan_of("fn f() { a(); let x = b().c(); d(); }");
        let tv = TokenView::new(&s);
        let t = Tree::build(&tv);
        let b = (0..tv.toks().len()).find(|&i| tv.text(i) == "b").unwrap();
        let (from, to) = t.stmt_range(&tv, b);
        let texts: Vec<&str> = (from..to).map(|m| tv.text(m)).collect();
        assert_eq!(texts, ["let", "x", "=", "b", "(", ")", ".", "c", "(", ")"]);
    }
}
