//! The public surface as a reviewable listing.
//!
//! Collects the names the umbrella crate's `prelude` re-exports and the
//! names each library crate's `lib.rs` makes public (`pub use`, with glob
//! re-exports expanded one level; `pub mod`; items defined in `lib.rs`
//! itself), sorts them, and compares the listing with the committed
//! `docs/PUBLIC_API.txt`. Growing or shrinking the surface is then a
//! one-line diff of that file. On a mismatch the test prints the new
//! listing; copy it into the file if the change is intended.

use std::path::Path;

/// Library crates whose roots are listed, as `(crate name, directory)`.
const CRATES: [(&str, &str); 6] = [
    ("flat_core", "crates/core"),
    ("flat_data", "crates/data"),
    ("flat_geom", "crates/geom"),
    ("flat_rtree", "crates/rtree"),
    ("flat_sfc", "crates/sfc"),
    ("flat_storage", "crates/storage"),
];

const ITEM_KINDS: [&str; 8] = [
    "struct ", "enum ", "trait ", "type ", "fn ", "const ", "static ", "mod ",
];

/// `source` up to its first `#[cfg(test)]`, without line comments.
fn code(source: &str) -> String {
    let end = source.find("#[cfg(test)]").unwrap_or(source.len());
    source[..end]
        .lines()
        .map(|line| line.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The statements of `code` that start with `pub use `, without the
/// keyword and the trailing `;`, whitespace collapsed.
fn pub_uses(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = code;
    while let Some(at) = rest.find("pub use ") {
        let tail = &rest[at + "pub use ".len()..];
        let end = tail.find(';').expect("a `pub use` ends with `;`");
        out.push(tail[..end].split_whitespace().collect());
        rest = &tail[end..];
    }
    out
}

/// Splits `list` at top-level commas (braces nest).
fn split_top(list: &str) -> Vec<&str> {
    let (mut depth, mut start, mut parts) = (0, 0, Vec::new());
    for (i, c) in list.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            ',' if depth == 0 => {
                parts.push(&list[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&list[start..]);
    parts.into_iter().filter(|p| !p.is_empty()).collect()
}

/// Flattens one use tree into `(path, exported name)` pairs; a glob
/// exports the name `*`.
fn use_tree(prefix: &str, tree: &str, out: &mut Vec<(String, String)>) {
    if let Some(open) = tree.find('{') {
        let inner = &tree[open + 1..tree.rfind('}').expect("balanced braces")];
        for part in split_top(inner) {
            use_tree(&format!("{prefix}{}", &tree[..open]), part, out);
        }
        return;
    }
    let path = format!("{prefix}{tree}");
    let (path, name) = match path.split_once(" as ") {
        Some((path, alias)) => (path.to_string(), alias.to_string()),
        None => {
            let name = path.rsplit("::").next().unwrap_or(&path).to_string();
            (path.clone(), name)
        }
    };
    out.push((path, name));
}

/// Top-level `pub` items (and `pub mod`s) defined in `code`.
fn pub_items(code: &str) -> Vec<String> {
    code.lines()
        .filter_map(|line| line.strip_prefix("pub "))
        .filter_map(|rest| {
            let kind = ITEM_KINDS.iter().find(|k| rest.starts_with(**k))?;
            let name: String = rest[kind.len()..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            Some(if *kind == "mod " {
                format!("{name} (mod)")
            } else {
                name
            })
        })
        .collect()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every listed name, `crate::name`, sorted.
fn listing(root: &Path) -> Vec<String> {
    let mut lines = Vec::new();
    for (krate, dir) in CRATES {
        let src = root.join(dir).join("src");
        let lib = code(&read(&src.join("lib.rs")));
        for statement in pub_uses(&lib) {
            let mut pairs = Vec::new();
            use_tree("", &statement, &mut pairs);
            for (path, name) in pairs {
                if name != "*" {
                    lines.push(format!("{krate}::{name}"));
                    continue;
                }
                // A glob over one of the crate's own modules: its items.
                let module = path.trim_end_matches("::*");
                let file = src.join(format!("{module}.rs"));
                for item in pub_items(&code(&read(&file))) {
                    lines.push(format!("{krate}::{item}"));
                }
            }
        }
        for item in pub_items(&lib) {
            lines.push(format!("{krate}::{item}"));
        }
    }
    let umbrella = code(&read(&root.join("src/lib.rs")));
    let prelude_at = umbrella.find("pub mod prelude").expect("a prelude");
    for statement in pub_uses(&umbrella[prelude_at..]) {
        let mut pairs = Vec::new();
        use_tree("", &statement, &mut pairs);
        lines.extend(
            pairs
                .into_iter()
                .map(|(_, name)| format!("flat_repro::prelude::{name}")),
        );
    }
    lines.sort();
    lines.dedup();
    lines
}

#[test]
fn public_surface_matches_the_committed_listing() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let listed = listing(root).join("\n") + "\n";
    let committed = read(&root.join("docs/PUBLIC_API.txt"));
    assert!(
        listed == committed,
        "the public surface changed; if intended, docs/PUBLIC_API.txt becomes:\n\n{listed}"
    );
}
