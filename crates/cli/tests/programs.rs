//! Integration tests: the shipped `.pll` demo programs run correctly
//! through the real CLI path.

use parulel_cli::run_cli;
use std::path::PathBuf;

fn program_path(name: &str) -> String {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // repo root
    p.push("examples/programs");
    p.push(name);
    p.to_str().unwrap().to_string()
}

fn cli(words: &[&str]) -> (i32, String) {
    let argv: Vec<String> = words.iter().map(|s| s.to_string()).collect();
    let mut buf = Vec::new();
    let code = run_cli(&argv, &mut buf);
    (code, String::from_utf8(buf).unwrap())
}

#[test]
fn counter_counts_to_ten_and_halts() {
    let (code, out) = cli(&["run", &program_path("counter.pll")]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("reached ten"), "{out}");
    assert!(out.contains("(halt)"), "{out}");
}

#[test]
fn sort_produces_ascending_cells() {
    let (code, out) = cli(&["run", &program_path("sort.pll"), "--dump-wm", "--stats"]);
    assert_eq!(code, 0, "{out}");
    // extract (cell ^i k ^v v) rows and check v is the sorted input
    let mut cells: Vec<(i64, i64)> = out
        .lines()
        .filter_map(|l| {
            let l = l.trim();
            let rest = l.strip_prefix("(cell ^i ")?;
            let (i, rest) = rest.split_once(" ^v ")?;
            let v = rest.strip_suffix(')')?;
            Some((i.parse().ok()?, v.parse().ok()?))
        })
        .collect();
    cells.sort();
    let values: Vec<i64> = cells.iter().map(|&(_, v)| v).collect();
    assert_eq!(values, vec![0, 1, 2, 3, 6, 7, 8, 9], "{out}");
    // parallel swaps: strictly fewer cycles than total swaps performed
    assert!(out.contains("firings/cycle"), "{out}");
}

#[test]
fn sieve_reports_exactly_the_primes_up_to_30() {
    let (code, out) = cli(&["run", &program_path("sieve.pll")]);
    assert_eq!(code, 0, "{out}");
    let mut primes: Vec<i64> = out
        .lines()
        .filter_map(|l| l.strip_prefix("prime ")?.parse().ok())
        .collect();
    primes.sort();
    assert_eq!(primes, vec![2, 3, 5, 7, 11, 13, 17, 19, 23, 29], "{out}");
    // and the whole sieve takes 3 cycles: mark+advance, collect, quiesce
    assert!(
        out.contains("in 2 cycles") || out.contains("in 3 cycles"),
        "{out}"
    );
}

#[test]
fn all_shipped_programs_pass_check_and_fmt() {
    for name in ["counter.pll", "sort.pll", "sieve.pll"] {
        let path = program_path(name);
        let (code, out) = cli(&["check", &path]);
        assert_eq!(code, 0, "{name}: {out}");
        let (code, formatted) = cli(&["fmt", &path]);
        assert_eq!(code, 0, "{name}");
        assert!(
            parulel_lang::compile_with_wm(&formatted).is_ok(),
            "{name} fmt output does not compile:\n{formatted}"
        );
    }
}

#[test]
fn check_refuses_deep_expression_nesting_without_aborting() {
    // 200k nested `(+ 1 …` is far deeper than any stack could recurse
    // through: it must be an ordinary parse error, not an abort.
    let depth = 200_000;
    let source = format!(
        "(literalize a x)\n(p r (a ^x <v>) --> (make a ^x {}<v>{}))\n",
        "(+ 1 ".repeat(depth),
        ")".repeat(depth)
    );
    let path = std::env::temp_dir().join(format!("parulel-deep-{}.pll", std::process::id()));
    std::fs::write(&path, source).unwrap();
    let (code, out) = cli(&["check", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("nesting deeper than"), "{out}");
}
