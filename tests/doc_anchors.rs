//! Audit of the `file:line` anchors in `README.md` and `docs/*.md`.
//!
//! The docs cite code as `` `symbol` at `crates/…/file.rs:N` `` (also
//! `` `symbol` (`path:N`) `` and `` (`symbol`, `path:N`) ``). Line numbers
//! drift with every edit above them, so this test re-checks each one:
//! the cited file must have that line, and when the anchor names a symbol
//! the line must mention the symbol's last `::` segment. A stale anchor
//! fails with the line(s) where the symbol is defined now, so the fix is
//! to copy a number. A span that is a bare path (`dir/…/file.rs`, also
//! `.md`, `.yml`, `.toml`, `.json`) must name a file in the tree, so a
//! deleted or moved file cannot leave its citations behind.

use std::fs;
use std::path::Path;

/// `needle` occurs in `line` as a whole identifier.
fn mentions(line: &str, needle: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices(needle).any(|(at, _)| {
        !line[..at].chars().next_back().is_some_and(ident)
            && !line[at + needle.len()..].chars().next().is_some_and(ident)
    })
}

/// `span` as `(path, line)` if it has the shape `dir/…/file.rs:N`.
fn as_anchor(span: &str) -> Option<(&str, usize)> {
    let (path, line) = span.rsplit_once(':')?;
    if !path.ends_with(".rs") || !path.contains('/') || path.contains(' ') {
        return None;
    }
    Some((path, line.parse().ok()?))
}

/// `span` cites one file by its path from the repo root: it contains a `/`,
/// ends in a source or document extension, and is no glob, brace set,
/// elision or command line.
fn is_bare_path(span: &str) -> bool {
    const EXTENSIONS: [&str; 5] = [".rs", ".md", ".yml", ".toml", ".json"];
    span.contains('/')
        && EXTENSIONS.iter().any(|e| span.ends_with(e))
        && !span.contains(['*', '{', '…', ' ', '\n'])
}

/// The identifier a symbol span is looked up by: the last `::` segment
/// of `Type::method()`, `module::function`, `Enum::Variant`, `macro!`.
fn last_segment(span: &str) -> Option<&str> {
    let seg = span.rsplit("::").next()?;
    let seg = seg.trim_end_matches("()").trim_end_matches('!');
    let mut chars = seg.chars();
    (chars.next().is_some_and(|c| c.is_alphabetic() || c == '_')
        && chars.all(|c| c.is_alphanumeric() || c == '_'))
    .then_some(seg)
}

/// Lines of `source` that look like the definition of `name` (1-based);
/// every mention if none does.
fn definitions(source: &[&str], name: &str) -> Vec<usize> {
    const KEYWORDS: [&str; 9] = [
        "fn ",
        "struct ",
        "enum ",
        "trait ",
        "type ",
        "const ",
        "static ",
        "mod ",
        "macro_rules! ",
    ];
    let lines = |pred: &dyn Fn(&str) -> bool| -> Vec<usize> {
        let hits = source.iter().enumerate().filter(|(_, l)| pred(l));
        hits.map(|(i, _)| i + 1).collect()
    };
    let defined = lines(&|l| {
        let field_or_variant = l.trim_start().trim_start_matches("pub ").starts_with(name);
        let item = KEYWORDS.iter().any(|k| l.contains(&format!("{k}{name}")));
        mentions(l, name) && (item || field_or_variant)
    });
    if defined.is_empty() {
        lines(&|l| mentions(l, name))
    } else {
        defined
    }
}

#[test]
fn every_file_line_anchor_in_the_docs_points_at_the_symbol_it_names() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut docs = vec![root.join("README.md")];
    for entry in fs::read_dir(root.join("docs")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "md") {
            docs.push(path);
        }
    }
    docs.sort();

    let mut checked = 0;
    let mut stale = Vec::new();
    for doc in &docs {
        let text = fs::read_to_string(doc).unwrap();
        let doc_name = doc.strip_prefix(root).unwrap().display().to_string();
        // Backticked spans sit at the odd indices of a split on '`'; the
        // prose between two spans is the even index between them.
        let parts: Vec<&str> = text.split('`').collect();
        let mut doc_line = 1;
        for (i, part) in parts.iter().enumerate() {
            let at_line = doc_line;
            doc_line += part.matches('\n').count();
            if i % 2 == 0 {
                continue;
            }
            let Some((path, line)) = as_anchor(part) else {
                if is_bare_path(part) {
                    checked += 1;
                    if !root.join(part).is_file() {
                        stale.push(format!("{doc_name}:{at_line}: `{part}`: no such file"));
                    }
                }
                continue;
            };
            checked += 1;
            let here = format!("{doc_name}:{at_line}: `{path}:{line}`");
            let Ok(source) = fs::read_to_string(root.join(path)) else {
                stale.push(format!("{here}: no such file"));
                continue;
            };
            let source: Vec<&str> = source.lines().collect();
            let Some(cited) = line.checked_sub(1).and_then(|l| source.get(l)) else {
                stale.push(format!("{here}: the file has {} lines", source.len()));
                continue;
            };
            // `symbol` at `path:N` | `symbol` (`path:N`) | (`symbol`, `path:N`)
            let joiner: String = parts[i - 1].split_whitespace().collect();
            let symbol = (i >= 3 && matches!(joiner.as_str(), "at" | "(" | ","))
                .then(|| last_segment(parts[i - 2]))
                .flatten();
            if let Some(symbol) = symbol.filter(|s| !mentions(cited, s)) {
                stale.push(format!(
                    "{here} names `{}` but line {line} is {:?}; `{symbol}` is at {path}:{:?}",
                    parts[i - 2],
                    cited.trim(),
                    definitions(&source, symbol)
                ));
            }
        }
    }
    assert!(checked > 0, "no anchors found: the parser is broken");
    assert!(
        stale.is_empty(),
        "{} of {checked} doc anchors are stale:\n{}",
        stale.len(),
        stale.join("\n")
    );
}
